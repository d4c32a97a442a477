//! Deterministic pending-event queue.
//!
//! Events are ordered by `(time, order)`: ties on time are broken by an
//! explicit *order* tag. [`EventQueue::schedule`] uses the local
//! sequence number as the tag, so two events scheduled for the same
//! instant are delivered in the order they were scheduled — the classic
//! serial behavior. [`EventQueue::schedule_ordered`] lets the caller
//! supply the tag instead; the simulation derives it from per-node
//! lanes, so an event's key depends only on the node that scheduled it
//! and not on how events from different nodes interleave. This makes
//! every run with the same seed bit-for-bit reproducible.
//!
//! # FIFO lanes
//!
//! Most events of a network simulation come from sources that emit keys
//! in non-decreasing order: a constant-delay wire delivers in send
//! order, a serial processor completes in admission order.
//! [`EventQueue::schedule_lane`] appends such a key to a per-source
//! FIFO (`O(1)`); only the *head* of each non-empty lane sits in a
//! small heap, and popping a lane event replaces that head in place
//! with the lane's next key. The general heap is left with the events
//! that have no such structure (timers, failures), so a near-future
//! message never sifts through thousands of far-future timers. A key
//! that would break its lane's order goes to the general heap instead,
//! so delivery order is a function of the `(time, order)` keys alone,
//! whatever lane — if any — an event was scheduled on.
//!
//! # Cancellation
//!
//! Cancellation is lazy: the queue keeps one *live* bit per issued
//! sequence number — set on schedule, cleared on delivery or
//! cancellation. [`EventQueue::cancel`] just clears the bit; the key is
//! discarded when it reaches the head of its heap or lane. No record
//! can outlive its event: cancelling an already-delivered id is a
//! no-op, and the live set is empty whenever the queue is drained. When
//! cancelled keys come to dominate, heap and lanes are compacted in
//! place (see `maybe_compact`), which bounds the raw key count by twice
//! the live count.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Identifier for a scheduled event, usable to cancel it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// Returns the raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A heap key: the event's delivery time, its total-order tag, its
/// local sequence number and its payload slot. Payloads live outside
/// the heap (see `EventQueue::payloads`), so sift operations move
/// 32-byte `Copy` keys instead of full events. Delivery order is
/// `(time, order)`; `seq` only breaks ties and locates the live bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    order: u64,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, order) at the top. `seq` breaks any remaining tie so
        // keys have a total order even if a caller reuses order tags.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.order.cmp(&self.order))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The front key of a non-empty lane, as held in `EventQueue::heads`.
/// Keys are unique (by `seq`), so ordering by key alone is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LaneHead {
    key: Key,
    lane: usize,
}

/// One live bit per issued sequence number. Sequence numbers are dense
/// (0, 1, 2, …), so a plain bit vector gives O(1) set/clear/test with
/// no hashing; memory is one bit per event ever scheduled on this
/// queue, which for simulation-sized runs is trivial.
#[derive(Debug, Default)]
struct LiveBits {
    words: Vec<u64>,
    count: usize,
}

impl LiveBits {
    /// Marks `seq` live. Sequence numbers must arrive in order.
    fn insert(&mut self, seq: u64) {
        let word = (seq >> 6) as usize;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= 1 << (seq & 63);
        self.count += 1;
    }

    /// Clears `seq`; returns whether it was live.
    fn remove(&mut self, seq: u64) -> bool {
        match self.words.get_mut((seq >> 6) as usize) {
            Some(w) if *w & (1 << (seq & 63)) != 0 => {
                *w &= !(1 << (seq & 63));
                self.count -= 1;
                true
            }
            _ => false,
        }
    }

    fn contains(&self, seq: u64) -> bool {
        self.words
            .get((seq >> 6) as usize)
            .is_some_and(|w| w & (1 << (seq & 63)) != 0)
    }

    fn clear(&mut self) {
        self.words.clear();
        self.count = 0;
    }
}

/// Below this many raw keys compaction is never worth the rebuild cost.
const COMPACT_MIN_KEYS: usize = 64;

/// A priority queue of future events ordered by `(time, order)`.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::queue::EventQueue;
/// use bgpsim_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// let (t, _, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_secs(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Keys scheduled without a lane, or rejected by theirs.
    heap: BinaryHeap<Key>,
    /// Per-lane keys in ascending `(time, order, seq)` order, front
    /// first; grown on demand by [`schedule_lane`](Self::schedule_lane).
    lanes: Vec<VecDeque<Key>>,
    /// The front key of every non-empty lane.
    heads: BinaryHeap<LaneHead>,
    /// Keys held in `lanes` (each lane's front is also in `heads`).
    lane_keys: usize,
    /// Live = scheduled and neither delivered nor cancelled. Invariant:
    /// every live seq has exactly one key, in `heap` or in one lane, so
    /// `raw_len() >= live.count` always holds.
    live: LiveBits,
    /// A key's payload sits at `payloads[key.slot]`. A slot is freed
    /// when its key leaves the queue and the most recently freed slot
    /// is reused first, so the slots in use stay few and warm however
    /// long the oldest pending event (a 30-second timer, say) waits. A
    /// cancelled event keeps its slot, payload included, until its dead
    /// key is discarded.
    payloads: Vec<Option<E>>,
    free_slots: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            lane_keys: 0,
            live: LiveBits::default(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time` and returns an id that
    /// can be passed to [`cancel`](Self::cancel). The order tag is the
    /// local sequence number, so same-instant events deliver in
    /// scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.schedule_ordered(time, seq, payload)
    }

    /// Schedules `payload` at `time` under an explicit total-order tag.
    ///
    /// Same-instant events deliver in ascending `order`.
    pub fn schedule_ordered(&mut self, time: SimTime, order: u64, payload: E) -> EventId {
        let key = self.issue(time, order, payload);
        self.heap.push(key);
        EventId(key.seq)
    }

    /// Like [`schedule_ordered`](Self::schedule_ordered), for a source
    /// whose keys are (almost always) non-decreasing: the event joins
    /// FIFO lane `lane` in `O(1)` when its key does not precede the
    /// lane's newest pending key, and the general heap otherwise.
    /// Delivery order is the same as if every event had been scheduled
    /// with `schedule_ordered`; the lane only makes it cheaper. Lanes
    /// are created on first use, so lane numbers should be small and
    /// dense.
    pub fn schedule_lane(&mut self, lane: usize, time: SimTime, order: u64, payload: E) -> EventId {
        let key = self.issue(time, order, payload);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let keys = &mut self.lanes[lane];
        match keys.back() {
            // Reversed `Ord`: greater means earlier.
            Some(newest) if key > *newest => {
                self.heap.push(key);
                return EventId(key.seq);
            }
            Some(_) => {}
            None => self.heads.push(LaneHead { key, lane }),
        }
        keys.push_back(key);
        self.lane_keys += 1;
        EventId(key.seq)
    }

    /// Issues the next sequence number for a new live event.
    fn issue(&mut self, time: SimTime, order: u64, payload: E) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.payloads.push(Some(payload));
                u32::try_from(self.payloads.len() - 1).expect("over 2^32 pending events")
            }
        };
        Key {
            time,
            order,
            seq,
            slot,
        }
    }

    /// Returns `true` if the event with this id is still pending
    /// (scheduled and neither delivered nor cancelled). O(1).
    pub fn is_live(&self, id: EventId) -> bool {
        id.0 < self.next_seq && self.live.contains(id.0)
    }

    /// Empties and frees `key`'s payload slot as the key leaves the
    /// queue.
    fn release(&mut self, key: Key) -> E {
        self.free_slots.push(key.slot);
        self.payloads[key.slot as usize]
            .take()
            .expect("key without payload")
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet been delivered or cancelled.
    ///
    /// Cancelling an id that was already delivered, already cancelled,
    /// or never issued is a no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.live.remove(id.0);
        if hit {
            self.maybe_compact();
        }
        hit
    }

    /// Drops dead keys from the heap and every lane once they outnumber
    /// live ones (and there are enough keys for the `O(n)` rebuild to
    /// pay for itself). Order is fully determined by the keys, and
    /// removing keys from a lane keeps it sorted, so compaction never
    /// changes delivery order.
    fn maybe_compact(&mut self) {
        if self.raw_len() < COMPACT_MIN_KEYS || self.raw_len() <= 2 * self.live.count {
            return;
        }
        let (live, payloads, free_slots) = (&self.live, &mut self.payloads, &mut self.free_slots);
        let mut keep = |key: &Key| {
            let alive = live.contains(key.seq);
            if !alive {
                payloads[key.slot as usize] = None;
                free_slots.push(key.slot);
            }
            alive
        };
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.retain(&mut keep);
        self.heap = BinaryHeap::from(keys);
        self.heads.clear();
        self.lane_keys = 0;
        for (lane, keys) in self.lanes.iter_mut().enumerate() {
            keys.retain(&mut keep);
            self.lane_keys += keys.len();
            if let Some(&key) = keys.front() {
                self.heads.push(LaneHead { key, lane });
            }
        }
    }

    /// Whether the earliest key, live or not, is a lane head rather
    /// than the top of the general heap; `None` when there is no key.
    fn lane_is_next(&self) -> Option<bool> {
        match (self.heap.peek(), self.heads.peek()) {
            // Reversed `Ord`: greater means earlier.
            (Some(general), Some(head)) => Some(head.key > *general),
            (Some(_), None) => Some(false),
            (None, Some(_)) => Some(true),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest key, live or not.
    fn pop_key(&mut self) -> Option<Key> {
        if !self.lane_is_next()? {
            return self.heap.pop();
        }
        let mut head = self.heads.peek_mut().expect("peeked lane head vanished");
        let key = head.key;
        let keys = &mut self.lanes[head.lane];
        keys.pop_front();
        self.lane_keys -= 1;
        match keys.front() {
            // Replace-top: the lane's next key usually belongs near the
            // top again, so the sift-down on drop stops early.
            Some(&next) => head.key = next,
            None => {
                PeekMut::pop(head);
            }
        }
        Some(key)
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.pop_keyed()
            .map(|(time, _, id, payload)| (time, id, payload))
    }

    /// Like [`pop`](Self::pop), but also returns the event's order tag:
    /// the full `(time, order)` key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, EventId, E)> {
        while let Some(key) = self.pop_key() {
            let payload = self.release(key);
            if self.live.remove(key.seq) {
                return Some((key.time, key.order, EventId(key.seq), payload));
            }
            // Not live: cancelled earlier; discard the dead key.
        }
        debug_assert!(self.live.count == 0, "live id with no key");
        None
    }

    /// Returns the delivery time of the earliest live event without
    /// removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled keys from the head so the answer is live.
        loop {
            let key = if self.lane_is_next()? {
                self.heads.peek()?.key
            } else {
                *self.heap.peek()?
            };
            if self.live.contains(key.seq) {
                return Some(key.time);
            }
            let dead = self.pop_key()?;
            drop(self.release(dead));
        }
    }

    /// Number of keys held, *including* not-yet-skipped cancelled ones.
    pub fn raw_len(&self) -> usize {
        self.heap.len() + self.lane_keys
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live.count
    }

    /// Returns `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live.count == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.clear();
        self.heads.clear();
        self.lane_keys = 0;
        self.live.clear();
        self.payloads.clear();
        self.free_slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// True when no live bookkeeping remains (every issued id was
    /// delivered or cancelled).
    fn bookkeeping_is_empty<E>(q: &EventQueue<E>) -> bool {
        q.live.count == 0
            && q.live.words.iter().all(|&w| w == 0)
            && q.payloads.iter().all(Option::is_none)
            && q.free_slots.len() == q.payloads.len()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), "dead");
        q.schedule(SimTime::from_secs(2), "alive");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        let (_, _, ev) = q.pop().unwrap();
        assert_eq!(ev, "alive");
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_unissued_id_is_false() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_delivery_is_false_and_leaks_nothing() {
        // Regression test for the cancel-set leak: cancelling an id whose
        // event was already delivered used to park the id in the lazy
        // bookkeeping set forever. With live-id tracking it is a no-op.
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), "gone");
        assert!(q.pop().is_some());
        assert!(!q.cancel(id));
        assert!(
            bookkeeping_is_empty(&q),
            "no bookkeeping may outlive the event"
        );
        assert_eq!(q.raw_len(), 0);
    }

    #[test]
    fn bookkeeping_empty_after_draining() {
        // Regression test: after draining the queue — with cancellations
        // interleaved before, during, and after delivery — the live set
        // must be empty.
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            ids.push(q.schedule(SimTime::from_nanos(i % 7), i));
        }
        for id in ids.iter().step_by(3) {
            assert!(q.cancel(*id));
        }
        let mut delivered = Vec::new();
        while let Some((_, _, ev)) = q.pop() {
            delivered.push(ev);
        }
        assert_eq!(delivered.len(), 100 - 34);
        // Cancel everything again, delivered or not: all no-ops now.
        for id in &ids {
            assert!(!q.cancel(*id));
        }
        assert!(bookkeeping_is_empty(&q));
        assert_eq!(q.raw_len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_bounds_raw_len_and_preserves_order() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..200u64 {
            ids.push(q.schedule(SimTime::from_nanos(1000 - i), i));
        }
        // Cancel 150 of 200: dead entries dominate, compaction must kick in.
        for id in ids.iter().take(150) {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 50);
        assert!(
            q.raw_len() <= 2 * q.len(),
            "raw heap {} not bounded by 2x live {}",
            q.raw_len(),
            q.len()
        );
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        let expected: Vec<u64> = (150..200).rev().collect();
        assert_eq!(got, expected, "compaction must not change delivery order");
    }

    #[test]
    fn small_queues_skip_compaction() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10u64)
            .map(|i| q.schedule(SimTime::from_nanos(i), i))
            .collect();
        for id in ids.iter().take(9) {
            q.cancel(*id);
        }
        // Below COMPACT_MIN_HEAP the dead entries stay until popped.
        assert_eq!(q.raw_len(), 10);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(9));
        assert_eq!(q.raw_len(), 0);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(5), 2);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::<u8>::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_discards_everything() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let id = q.schedule(SimTime::from_secs(2), 2);
        q.cancel(id);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn explicit_order_tags_override_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_ordered(t, 30, 'c');
        q.schedule_ordered(t, 10, 'a');
        q.schedule_ordered(t, 20, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn pop_keyed_returns_the_order_tag() {
        let mut q = EventQueue::new();
        q.schedule_ordered(SimTime::from_secs(1), 77, "x");
        let (t, order, _, ev) = q.pop_keyed().unwrap();
        assert_eq!((t, order, ev), (SimTime::from_secs(1), 77, "x"));
    }

    #[test]
    fn is_live_tracks_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        let b = q.schedule(SimTime::from_secs(2), 2);
        assert!(q.is_live(a) && q.is_live(b));
        q.cancel(a);
        assert!(!q.is_live(a));
        q.pop();
        assert!(!q.is_live(b));
        assert!(!q.is_live(EventId(99)), "unissued ids are not live");
    }

    #[test]
    fn partitioned_queues_agree_with_one_global_queue() {
        // Delivery order is a function of the keys alone: the same
        // keyed events spread over two queues pop, merged by
        // (time, order), in exactly the one global queue's order.
        let events: Vec<(u64, u64, u32)> = vec![
            (5, 3, 0),
            (5, 1, 1),
            (2, 9, 2),
            (5, 2, 3),
            (2, 4, 4),
            (7, 0, 5),
        ];
        let mut global = EventQueue::new();
        let mut parts = [EventQueue::new(), EventQueue::new()];
        for &(t, order, val) in &events {
            global.schedule_ordered(SimTime::from_secs(t), order, val);
            parts[(val % 2) as usize].schedule_ordered(SimTime::from_secs(t), order, val);
        }
        let serial: Vec<u32> = std::iter::from_fn(|| global.pop().map(|(_, _, e)| e)).collect();
        let mut merged: Vec<(u64, u64, u32)> = Vec::new();
        for q in parts.iter_mut() {
            while let Some((t, order, _, e)) = q.pop_keyed() {
                merged.push((t.as_nanos(), order, e));
            }
        }
        merged.sort_by_key(|&(t, order, _)| (t, order));
        let partitioned: Vec<u32> = merged.into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(serial, partitioned);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation the engine uses, interleaved at random,
        /// against a reference that keeps the live events in a `Vec`
        /// and delivers the smallest `(time, order, seq)`: same
        /// deliveries, same `cancel` and `peek_time` answers, same
        /// `len()` after every step (so the engine's `max_pending`
        /// agrees too). Times and order tags come from tiny ranges, so
        /// same-instant ties, reused tags and keys behind their lane's
        /// newest are the common case, not the rare one.
        #[test]
        fn matches_reference_under_random_interleavings(
            ops in proptest::collection::vec((0u8..12, 0u64..6, 0u64..4, 0u64..400), 1..400),
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            // Live events as (time, order, seq, payload).
            let mut model: Vec<(u64, u64, u64, u64)> = Vec::new();
            let mut issued = 0u64;
            let earliest = |model: &[(u64, u64, u64, u64)]| {
                model.iter().copied().min_by_key(|&(t, order, seq, _)| (t, order, seq))
            };
            for (kind, time, order, pick) in ops {
                let at = SimTime::from_nanos(time);
                match kind {
                    0..=6 => {
                        let id = match kind {
                            0 | 1 => q.schedule(at, pick),
                            2 | 3 => q.schedule_ordered(at, order, pick),
                            _ => q.schedule_lane((pick % 3) as usize, at, order, pick),
                        };
                        prop_assert_eq!(id.as_u64(), issued);
                        let order = if kind < 2 { issued } else { order };
                        model.push((time, order, issued, pick));
                        issued += 1;
                    }
                    // Any id: live, delivered, cancelled or never issued;
                    // kind 9 a burst, so dead keys come to dominate.
                    7..=9 => {
                        let burst = if kind == 9 { 8 * time } else { 1 };
                        for seq in pick..pick + burst {
                            let before = model.len();
                            model.retain(|&(_, _, s, _)| s != seq);
                            let hit = model.len() < before;
                            prop_assert_eq!(q.cancel(EventId(seq)), hit);
                            prop_assert!(
                                !hit || q.raw_len() < COMPACT_MIN_KEYS || q.raw_len() <= 2 * q.len(),
                                "{} keys for {} live events", q.raw_len(), q.len()
                            );
                        }
                    }
                    10 => {
                        let expected = earliest(&model);
                        model.retain(|&e| Some(e) != expected);
                        let got = q.pop_keyed().map(|(t, order, id, e)| (t.as_nanos(), order, id.0, e));
                        prop_assert_eq!(got, expected);
                    }
                    _ => {
                        let expected = earliest(&model).map(|(t, ..)| SimTime::from_nanos(t));
                        prop_assert_eq!(q.peek_time(), expected);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert!(q.raw_len() >= q.len());
            }
            model.sort_by_key(|&(t, order, seq, _)| (t, order, seq));
            let drained: Vec<(u64, u64, u64, u64)> = std::iter::from_fn(|| {
                q.pop_keyed().map(|(t, order, id, e)| (t.as_nanos(), order, id.0, e))
            })
            .collect();
            prop_assert_eq!(drained, model);
            prop_assert!(bookkeeping_is_empty(&q));
            prop_assert_eq!(q.raw_len(), 0);
        }

        /// The queue must agree with a reference model: a stable sort of
        /// the scheduled (time, seq) pairs.
        #[test]
        fn matches_stable_sort_model(times in proptest::collection::vec(0u64..100, 1..200)) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
                model.push((t, i));
            }
            model.sort_by_key(|&(t, _)| t); // stable sort keeps insertion order on ties
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t.as_nanos(), e))).collect();
            prop_assert_eq!(got, model);
        }

        /// Cancelling an arbitrary subset never delivers a cancelled event
        /// and delivers everything else in model order; afterwards the
        /// bookkeeping is empty regardless of the cancel pattern.
        #[test]
        fn cancellation_model(
            times in proptest::collection::vec(0u64..50, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                ids.push(q.schedule(SimTime::from_nanos(t), i));
            }
            let mut expected: Vec<(u64, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                let dead = cancel_mask.get(i).copied().unwrap_or(false);
                if dead {
                    q.cancel(ids[i]);
                } else {
                    expected.push((t, i));
                }
            }
            expected.sort_by_key(|&(t, _)| t);
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t.as_nanos(), e))).collect();
            prop_assert_eq!(got, expected);
            prop_assert!(bookkeeping_is_empty(&q));
            prop_assert_eq!(q.raw_len(), 0);
        }
    }
}
