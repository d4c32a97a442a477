//! Time-indexed forwarding tables.
//!
//! The control plane (BGP) and the data plane (packets) interact in one
//! direction only: routers update forwarding entries, packets read them.
//! Because the study deliberately avoids congestion (§4.2), packets
//! never influence routing, so the forwarding state can be recorded as a
//! piecewise-constant **history** during the control-plane run and
//! packets can be replayed against it afterwards — exactly equivalent to
//! interleaving them in one event loop, but far cheaper. (The
//! `bgpsim-sim` crate cross-validates this equivalence in tests.)

use bgpsim_core::{FibEntry, Prefix};
use bgpsim_netsim::time::SimTime;
use bgpsim_topology::NodeId;
use std::collections::BTreeMap;

/// The FIB deltas applied at one instant: the affected nodes in
/// ascending id order, each with the entry in effect afterwards.
pub type FibDeltas = Vec<(NodeId, Option<FibEntry>)>;

/// The forwarding history of one `(node, prefix)` pair: a list of
/// `(change time, new entry)` pairs in nondecreasing time order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FibHistory {
    changes: Vec<(SimTime, Option<FibEntry>)>,
}

impl FibHistory {
    /// Creates an empty history (no route at any time).
    pub fn new() -> Self {
        FibHistory::default()
    }

    /// Records a change at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last recorded change.
    pub fn record(&mut self, time: SimTime, entry: Option<FibEntry>) {
        if let Some(&(last, _)) = self.changes.last() {
            assert!(
                time >= last,
                "FIB changes must be recorded in time order ({time} < {last})"
            );
        }
        self.changes.push((time, entry));
    }

    /// The entry in effect at `time` (the latest change at or before
    /// `time`), or `None` if no route was installed yet.
    pub fn at(&self, time: SimTime) -> Option<FibEntry> {
        // Find the last change with change-time <= time.
        match self.changes.partition_point(|&(t, _)| t <= time) {
            0 => None,
            i => self.changes[i - 1].1,
        }
    }

    /// The latest entry, regardless of time.
    pub fn current(&self) -> Option<FibEntry> {
        self.changes.last().and_then(|&(_, e)| e)
    }

    /// All recorded changes, in order.
    pub fn changes(&self) -> &[(SimTime, Option<FibEntry>)] {
        &self.changes
    }
}

/// Forwarding-table histories for a whole network.
///
/// # Examples
///
/// ```
/// use bgpsim_dataplane::fib::NetworkFib;
/// use bgpsim_core::{FibEntry, Prefix};
/// use bgpsim_netsim::time::SimTime;
/// use bgpsim_topology::NodeId;
///
/// let mut fib = NetworkFib::new(3);
/// let p = Prefix::new(0);
/// fib.record(NodeId::new(1), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(0))));
/// assert_eq!(
///     fib.lookup(NodeId::new(1), p, SimTime::from_secs(5)),
///     Some(FibEntry::Via(NodeId::new(0)))
/// );
/// assert_eq!(fib.lookup(NodeId::new(2), p, SimTime::ZERO), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkFib {
    nodes: Vec<BTreeMap<Prefix, FibHistory>>,
}

impl NetworkFib {
    /// Creates histories for `n` nodes.
    pub fn new(n: usize) -> Self {
        NetworkFib {
            nodes: vec![BTreeMap::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Records that `node`'s entry for `prefix` changed at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or time order is violated for
    /// that `(node, prefix)`.
    pub fn record(&mut self, node: NodeId, prefix: Prefix, time: SimTime, entry: Option<FibEntry>) {
        self.nodes[node.index()]
            .entry(prefix)
            .or_default()
            .record(time, entry);
    }

    /// The entry in effect for `(node, prefix)` at `time`.
    pub fn lookup(&self, node: NodeId, prefix: Prefix, time: SimTime) -> Option<FibEntry> {
        self.nodes[node.index()]
            .get(&prefix)
            .and_then(|h| h.at(time))
    }

    /// The latest entry for `(node, prefix)`.
    pub fn current(&self, node: NodeId, prefix: Prefix) -> Option<FibEntry> {
        self.nodes[node.index()]
            .get(&prefix)
            .and_then(|h| h.current())
    }

    /// A full next-hop snapshot for `prefix` at `time`: element `i` is
    /// node `i`'s entry.
    pub fn snapshot(&self, prefix: Prefix, time: SimTime) -> Vec<Option<FibEntry>> {
        (0..self.nodes.len())
            .map(|i| self.lookup(NodeId::new(i as u32), prefix, time))
            .collect()
    }

    /// All change times for `prefix` across all nodes, sorted and
    /// deduplicated — the instants at which the forwarding graph
    /// changes shape.
    pub fn change_times(&self, prefix: Prefix) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self
            .nodes
            .iter()
            .filter_map(|m| m.get(&prefix))
            .flat_map(|h| h.changes().iter().map(|&(t, _)| t))
            .collect();
        times.sort();
        times.dedup();
        times
    }

    /// All changes for `prefix` grouped by change time, in time order.
    ///
    /// Each group lists the affected nodes in ascending id order with
    /// the entry in effect *after* that instant — when a node records
    /// several changes at the same time, only the last write survives
    /// (matching [`FibHistory::at`] semantics). This is the delta stream
    /// the incremental loop census consumes: it tells the scanner which
    /// next-hop edges moved at each instant without materializing a full
    /// snapshot.
    pub fn changes_by_time(&self, prefix: Prefix) -> Vec<(SimTime, FibDeltas)> {
        let mut changes: Vec<(SimTime, NodeId, Option<FibEntry>)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, m)| Some((NodeId::new(i as u32), m.get(&prefix)?)))
            .flat_map(|(node, h)| h.changes().iter().map(move |&(t, e)| (t, node, e)))
            .collect();
        // Stable: the writes of one node at one instant stay in record
        // order, so the last of them comes last.
        changes.sort_by_key(|&(t, node, _)| (t, node));
        let mut grouped: Vec<(SimTime, FibDeltas)> = Vec::new();
        for (t, node, e) in changes {
            match grouped.last_mut() {
                Some((at, deltas)) if *at == t => match deltas.last_mut() {
                    Some((last, entry)) if *last == node => *entry = e,
                    _ => deltas.push((node, e)),
                },
                _ => grouped.push((t, vec![(node, e)])),
            }
        }
        grouped
    }

    /// Builds the per-prefix [`EpochIndex`](crate::epoch::EpochIndex)
    /// over this history: the sorted change instants plus an `O(1)`
    /// `(node, epoch)` entry table. Built once per run by the
    /// measurement pipeline, it backs the batched packet replay and
    /// shares its delta stream with the incremental loop census.
    pub fn epoch_index(&self, prefix: Prefix) -> crate::epoch::EpochIndex {
        crate::epoch::EpochIndex::build(self, prefix)
    }

    /// Iterates over every `(node, prefix, time, entry)` change in
    /// per-node order (not globally time-sorted).
    pub fn iter_changes(
        &self,
    ) -> impl Iterator<Item = (NodeId, Prefix, SimTime, Option<FibEntry>)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(i, m)| {
            m.iter().flat_map(move |(&prefix, h)| {
                h.changes()
                    .iter()
                    .map(move |&(t, e)| (NodeId::new(i as u32), prefix, t, e))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn p() -> Prefix {
        Prefix::new(0)
    }

    #[test]
    fn empty_history_has_no_route() {
        let h = FibHistory::new();
        assert_eq!(h.at(SimTime::from_secs(100)), None);
        assert_eq!(h.current(), None);
    }

    #[test]
    fn lookup_finds_latest_change_at_or_before() {
        let mut h = FibHistory::new();
        h.record(SimTime::from_secs(1), Some(FibEntry::Via(n(1))));
        h.record(SimTime::from_secs(5), Some(FibEntry::Via(n(2))));
        h.record(SimTime::from_secs(9), None);
        assert_eq!(h.at(SimTime::ZERO), None, "before first change");
        assert_eq!(h.at(SimTime::from_secs(1)), Some(FibEntry::Via(n(1))));
        assert_eq!(h.at(SimTime::from_secs(4)), Some(FibEntry::Via(n(1))));
        assert_eq!(h.at(SimTime::from_secs(5)), Some(FibEntry::Via(n(2))));
        assert_eq!(h.at(SimTime::from_secs(9)), None, "route lost");
        assert_eq!(h.at(SimTime::from_secs(100)), None);
        assert_eq!(h.current(), None);
    }

    #[test]
    fn same_instant_changes_apply_last_writer() {
        let mut h = FibHistory::new();
        h.record(SimTime::from_secs(1), Some(FibEntry::Via(n(1))));
        h.record(SimTime::from_secs(1), Some(FibEntry::Via(n(2))));
        assert_eq!(h.at(SimTime::from_secs(1)), Some(FibEntry::Via(n(2))));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_panics() {
        let mut h = FibHistory::new();
        h.record(SimTime::from_secs(5), None);
        h.record(SimTime::from_secs(1), None);
    }

    #[test]
    fn network_fib_snapshot() {
        let mut fib = NetworkFib::new(3);
        fib.record(n(1), p(), SimTime::from_secs(1), Some(FibEntry::Via(n(0))));
        fib.record(n(2), p(), SimTime::from_secs(2), Some(FibEntry::Via(n(1))));
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        let snap = fib.snapshot(p(), SimTime::from_secs(1));
        assert_eq!(
            snap,
            vec![
                Some(FibEntry::Local),
                Some(FibEntry::Via(n(0))),
                None, // node 2's entry starts at t=2
            ]
        );
    }

    #[test]
    fn change_times_are_sorted_unique() {
        let mut fib = NetworkFib::new(2);
        fib.record(n(0), p(), SimTime::from_secs(3), None);
        fib.record(n(1), p(), SimTime::from_secs(1), None);
        fib.record(n(1), p(), SimTime::from_secs(3), None);
        assert_eq!(
            fib.change_times(p()),
            vec![SimTime::from_secs(1), SimTime::from_secs(3)]
        );
    }

    #[test]
    fn changes_by_time_groups_and_keeps_last_write() {
        let mut fib = NetworkFib::new(3);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(2), p(), SimTime::from_secs(1), Some(FibEntry::Via(n(1))));
        fib.record(n(1), p(), SimTime::from_secs(1), Some(FibEntry::Via(n(0))));
        // Same-instant double write: the second entry wins.
        fib.record(n(1), p(), SimTime::from_secs(2), Some(FibEntry::Via(n(2))));
        fib.record(n(1), p(), SimTime::from_secs(2), None);
        let grouped = fib.changes_by_time(p());
        assert_eq!(
            grouped,
            vec![
                (SimTime::ZERO, vec![(n(0), Some(FibEntry::Local))]),
                (
                    SimTime::from_secs(1),
                    vec![
                        (n(1), Some(FibEntry::Via(n(0)))),
                        (n(2), Some(FibEntry::Via(n(1)))),
                    ]
                ),
                (SimTime::from_secs(2), vec![(n(1), None)]),
            ]
        );
    }

    #[test]
    fn iter_changes_covers_everything() {
        let mut fib = NetworkFib::new(2);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(1), p(), SimTime::from_secs(1), Some(FibEntry::Via(n(0))));
        assert_eq!(fib.iter_changes().count(), 2);
    }
}
