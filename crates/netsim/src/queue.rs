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
//! Cancellation is lazy: the queue keeps one *live* bit per issued
//! sequence number — set on schedule, cleared on delivery or
//! cancellation. [`EventQueue::cancel`] just clears the bit; the heap
//! entry is discarded when it reaches the head. All three operations
//! stay `O(log n)` with O(1) bookkeeping and no hashing on the hot
//! path, and no record can outlive its event: cancelling an
//! already-delivered id is a no-op, and the live set is empty whenever
//! the queue is drained. When cancelled entries come to dominate the
//! heap it is compacted in place (see `maybe_compact`), which bounds
//! the raw heap size — and therefore the traced `max_queue_depth` — by
//! twice the live count.

use std::cmp::Ordering;
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

    /// Rebuilds an id from its [`as_u64`](Self::as_u64) value.
    ///
    /// Exists for checkpoint restore, where ids captured alongside a
    /// queue snapshot must stay valid against the restored queue
    /// (sequence numbers are preserved verbatim). A fabricated id is
    /// harmless: cancelling it is a no-op unless it names a live event.
    pub const fn from_raw(raw: u64) -> EventId {
        EventId(raw)
    }
}

/// A heap key: the event's delivery time, its total-order tag, and its
/// local sequence number. Payloads live outside the heap (see
/// `EventQueue::payloads`), so sift operations move 24-byte `Copy` keys
/// instead of full events. Delivery order is `(time, order)`; `seq`
/// only locates the payload and live bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    order: u64,
    seq: u64,
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

    /// Marks `seq` live in a pre-sized bit vector. The restore path
    /// uses this instead of [`insert`](Self::insert) because snapshot
    /// sequence numbers are sparse (delivered and cancelled seqs are
    /// gone), so the dense in-order growth assumption does not hold.
    fn set(&mut self, seq: u64) {
        self.words[(seq >> 6) as usize] |= 1 << (seq & 63);
        self.count += 1;
    }
}

/// Below this heap size compaction is never worth the rebuild cost.
const COMPACT_MIN_HEAP: usize = 64;

/// A priority queue of future events ordered by `(time, insertion seq)`.
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
    heap: BinaryHeap<Key>,
    /// Live = scheduled and neither delivered nor cancelled. Invariant:
    /// every live seq has exactly one heap entry, so
    /// `heap.len() >= live.count` always holds.
    live: LiveBits,
    /// Payload for issued sequence number `s` sits at
    /// `payloads[s - base_seq]`; the slot becomes `None` when the event
    /// is delivered or cancelled, and the window's front advances past
    /// freed slots. Memory is bounded by the seq span between the
    /// oldest unfreed event and the newest issued one.
    payloads: VecDeque<Option<E>>,
    base_seq: u64,
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
            live: LiveBits::default(),
            payloads: VecDeque::new(),
            base_seq: 0,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.payloads.push_back(Some(payload));
        self.heap.push(Key { time, order, seq });
        EventId(seq)
    }

    /// Returns `true` if the event with this id is still pending
    /// (scheduled and neither delivered nor cancelled). O(1).
    pub fn is_live(&self, id: EventId) -> bool {
        id.0 < self.next_seq && self.live.contains(id.0)
    }

    /// Frees the payload slot for `seq` (which must be occupied) and
    /// advances the window past freed slots.
    fn take_payload(&mut self, seq: u64) -> E {
        let payload = self.payloads[(seq - self.base_seq) as usize]
            .take()
            .expect("live seq without payload");
        while matches!(self.payloads.front(), Some(None)) {
            self.payloads.pop_front();
            self.base_seq += 1;
        }
        payload
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet been delivered or cancelled.
    ///
    /// Cancelling an id that was already delivered, already cancelled,
    /// or never issued is a no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.live.remove(id.0);
        if hit {
            drop(self.take_payload(id.0));
            self.maybe_compact();
        }
        hit
    }

    /// Rebuilds the heap without dead entries once they outnumber live
    /// ones (and the heap is big enough for the `O(n)` rebuild to pay
    /// for itself). Heap order is fully determined by `(time, seq)`, so
    /// compaction never changes delivery order.
    fn maybe_compact(&mut self) {
        if self.heap.len() >= COMPACT_MIN_HEAP && self.heap.len() > 2 * self.live.count {
            let live = &self.live;
            let keys: Vec<Key> = self
                .heap
                .drain()
                .filter(|key| live.contains(key.seq))
                .collect();
            self.heap = BinaryHeap::from(keys);
        }
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
        while let Some(key) = self.heap.pop() {
            if self.live.remove(key.seq) {
                let payload = self.take_payload(key.seq);
                return Some((key.time, key.order, EventId(key.seq), payload));
            }
            // Not live: cancelled earlier; discard the dead key.
        }
        debug_assert!(self.live.count == 0, "live id with no heap entry");
        debug_assert!(self.payloads.is_empty(), "payload with no heap entry");
        None
    }

    /// Returns the delivery time of the earliest live event without
    /// removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled keys from the head so the answer is live.
        while let Some(key) = self.heap.peek() {
            if self.live.contains(key.seq) {
                return Some(key.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of entries in the heap, *including* not-yet-skipped
    /// cancelled entries.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
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
        self.live.clear();
        self.payloads.clear();
        self.base_seq = self.next_seq;
    }

    /// The live pending entries as `(time, order, seq, payload)` in
    /// delivery order, plus the next sequence number to issue —
    /// everything a checkpoint needs to rebuild this queue exactly.
    pub(crate) fn snapshot_entries(&self) -> (u64, Vec<(SimTime, u64, u64, E)>)
    where
        E: Clone,
    {
        let mut entries: Vec<(SimTime, u64, u64, E)> = self
            .heap
            .iter()
            .filter(|key| self.live.contains(key.seq))
            .map(|key| {
                let payload = self.payloads[(key.seq - self.base_seq) as usize]
                    .as_ref()
                    .expect("live seq without payload")
                    .clone();
                (key.time, key.order, key.seq, payload)
            })
            .collect();
        entries.sort_by_key(|&(time, order, seq, _)| (time, order, seq));
        (self.next_seq, entries)
    }

    /// Rebuilds a queue from captured entries, preserving the original
    /// sequence numbers — so ids captured alongside the snapshot (e.g.
    /// pending MRAI [`EventId`]s) stay valid, same-instant delivery
    /// order is unchanged, and events scheduled after restore continue
    /// the original sequence.
    ///
    /// # Panics
    ///
    /// Panics if an entry's seq is `>= next_seq` or duplicated.
    pub(crate) fn restore_entries(next_seq: u64, entries: Vec<(SimTime, u64, u64, E)>) -> Self {
        let base_seq = entries
            .iter()
            .map(|&(_, _, seq, _)| seq)
            .min()
            .unwrap_or(next_seq);
        let mut payloads: VecDeque<Option<E>> = (base_seq..next_seq).map(|_| None).collect();
        let mut live = LiveBits {
            words: vec![0; (next_seq as usize).div_ceil(64)],
            count: 0,
        };
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for (time, order, seq, payload) in entries {
            assert!(seq < next_seq, "snapshot seq {seq} >= next_seq {next_seq}");
            let slot = &mut payloads[(seq - base_seq) as usize];
            assert!(slot.is_none(), "duplicate seq {seq} in snapshot");
            *slot = Some(payload);
            live.set(seq);
            heap.push(Key { time, order, seq });
        }
        EventQueue {
            heap,
            live,
            payloads,
            base_seq,
            next_seq,
        }
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
            && q.payloads.is_empty()
            && q.base_seq == q.next_seq
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
