//! Epoch-indexed forwarding history.
//!
//! A run's FIB history for one prefix changes only at finitely many
//! instants. Sorting those instants once yields **epochs**: half-open
//! intervals `[uₑ₋₁, uₑ)` inside which the whole forwarding graph is
//! frozen. [`EpochIndex`] materializes that view — the sorted change
//! instants plus an `O(1)` `(node, epoch) → entry` table — so the
//! packet-replay engine can replace one binary search per hop
//! ([`FibHistory::at`](crate::fib::FibHistory::at)) with a monotone
//! epoch cursor, and so one walk can stand for every packet that
//! repeats it until a change reaches its trajectory (see
//! [`replay_fleet`](crate::replay::replay_fleet)).
//!
//! The index owns the same grouped delta stream
//! ([`NetworkFib::changes_by_time`]) that the incremental loop census
//! consumes, so one pass over the FIB history serves both the census
//! and the replay (`bgpsim-metrics` builds the index once per run).
//!
//! # Epoch numbering
//!
//! With `E` distinct change instants `u₁ < … < u_E`, there are `E + 1`
//! epochs: epoch `0` covers `(-∞, u₁)` where no entry is installed,
//! and epoch `e ≥ 1` covers `[uₑ, uₑ₊₁)` (the last one unbounded).
//! Equivalently, `epoch(t)` is the number of change instants `≤ t` —
//! matching the "latest change at or before `t`" lookup rule of
//! [`FibHistory::at`](crate::fib::FibHistory::at), so for every node
//! and time, `entry(node, epoch(t)) == fib.lookup(node, prefix, t)`
//! (property-tested below).

use bgpsim_core::{FibEntry, Prefix};
use bgpsim_netsim::time::SimTime;
use bgpsim_topology::NodeId;

use crate::fib::{FibDeltas, NetworkFib};

/// Above this many table cells (`epochs × nodes`), [`EpochIndex`]
/// falls back from the dense snapshot table to per-node sparse change
/// lists. 2²² four-byte cells is 16 MiB — far beyond any paper-scale
/// run, but huge flap-train histories stay safe.
pub const DENSE_CELL_CAP: usize = 1 << 22;

/// The `(node, epoch) → entry` storage. Dense is one epoch-major
/// snapshot table of [`encode`]d entries (`O(1)` lookup,
/// cache-friendly within an epoch); sparse keeps each node's
/// `(first-epoch, entry)` change list and binary-searches it (used only
/// above [`DENSE_CELL_CAP`]).
#[derive(Debug, Clone)]
enum Table {
    Dense(Vec<u32>),
    Sparse(Vec<Vec<(u32, Option<FibEntry>)>>),
}

/// A dense table cell: `0` is no route, `1` is [`FibEntry::Local`],
/// `n + 2` is [`FibEntry::Via`]`(n)`. Half the size of an
/// `Option<FibEntry>`.
fn encode(entry: Option<FibEntry>) -> u32 {
    match entry {
        None => 0,
        Some(FibEntry::Local) => 1,
        Some(FibEntry::Via(next)) => next.index() as u32 + 2,
    }
}

/// The entry an [`encode`]d cell holds.
fn decode(cell: u32) -> Option<FibEntry> {
    match cell {
        0 => None,
        1 => Some(FibEntry::Local),
        via => Some(FibEntry::Via(NodeId::new(via - 2))),
    }
}

/// A per-prefix interval index over a recorded FIB history: the sorted
/// change instants (epoch boundaries), the grouped delta stream, and a
/// constant-time `(node, epoch)` entry table.
#[derive(Debug, Clone)]
pub struct EpochIndex {
    prefix: Prefix,
    node_count: usize,
    /// Distinct change instants, ascending: `times[e-1]` starts epoch
    /// `e`, and epoch `e` ends just before `times[e]`.
    times: Vec<SimTime>,
    /// The grouped last-writer-wins delta stream the index was built
    /// from — shared with the incremental loop census.
    deltas: Vec<(SimTime, FibDeltas)>,
    table: Table,
}

impl EpochIndex {
    /// Builds the index for `prefix` from a recorded history, using the
    /// dense table up to [`DENSE_CELL_CAP`] cells.
    pub fn build(fib: &NetworkFib, prefix: Prefix) -> Self {
        Self::build_with_cap(fib, prefix, DENSE_CELL_CAP)
    }

    /// [`build`](Self::build) with an explicit dense-table cell cap
    /// (`0` forces the sparse fallback; exposed for tests and benches).
    pub fn build_with_cap(fib: &NetworkFib, prefix: Prefix, dense_cell_cap: usize) -> Self {
        let deltas = fib.changes_by_time(prefix);
        let n = fib.node_count();
        let times: Vec<SimTime> = deltas.iter().map(|&(t, _)| t).collect();
        let epochs = times.len() + 1;
        let table = if epochs.saturating_mul(n) <= dense_cell_cap {
            // Column e is the full snapshot in effect during epoch e;
            // column 0 (before any change) is all no-route. A next hop
            // is a node of the table, so `n + 2` fits a cell whenever
            // the table fits in memory.
            let mut entries = vec![encode(None); epochs * n];
            let mut current = vec![encode(None); n];
            for (e, (_, ds)) in deltas.iter().enumerate() {
                for &(node, entry) in ds {
                    current[node.index()] = encode(entry);
                }
                entries[(e + 1) * n..(e + 2) * n].copy_from_slice(&current);
            }
            Table::Dense(entries)
        } else {
            let mut per_node: Vec<Vec<(u32, Option<FibEntry>)>> = vec![Vec::new(); n];
            for (e, (_, ds)) in deltas.iter().enumerate() {
                for &(node, entry) in ds {
                    let list = &mut per_node[node.index()];
                    // Skip recorded writes that didn't change the value
                    // so each list stays minimal.
                    if list.last().map(|&(_, prev)| prev) != Some(entry) {
                        list.push(((e + 1) as u32, entry));
                    }
                }
            }
            Table::Sparse(per_node)
        };
        EpochIndex {
            prefix,
            node_count: n,
            times,
            deltas,
            table,
        }
    }

    /// The prefix this index covers.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// Number of nodes in the indexed history.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The epoch boundaries: distinct change instants, ascending.
    /// Epoch `e ≥ 1` starts at `boundaries()[e - 1]` and ends just
    /// before `boundaries()[e]` (the last epoch is unbounded).
    pub fn boundaries(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of epochs (`boundaries().len() + 1`, counting the
    /// initial empty epoch 0).
    pub fn epoch_count(&self) -> usize {
        self.times.len() + 1
    }

    /// The epoch in effect at `t`: the number of change instants `≤ t`.
    pub fn epoch_of(&self, t: SimTime) -> u32 {
        self.times.partition_point(|&u| u <= t) as u32
    }

    /// The entry in effect for `node` during `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `epoch` is out of range (exactly as
    /// [`NetworkFib::lookup`] panics on an out-of-range node).
    #[inline]
    pub fn entry(&self, node: NodeId, epoch: u32) -> Option<FibEntry> {
        let i = node.index();
        assert!(i < self.node_count, "node {node} out of range");
        match &self.table {
            Table::Dense(entries) => decode(entries[epoch as usize * self.node_count + i]),
            Table::Sparse(per_node) => {
                let list = &per_node[i];
                match list.partition_point(|&(e, _)| e <= epoch) {
                    0 => None,
                    k => list[k - 1].1,
                }
            }
        }
    }

    /// Time-based lookup through the index:
    /// `entry(node, epoch_of(t))`. Equivalent to
    /// [`NetworkFib::lookup`]; the replay hot path uses
    /// [`entry`](Self::entry) with a monotone cursor instead.
    pub fn lookup(&self, node: NodeId, t: SimTime) -> Option<FibEntry> {
        self.entry(node, self.epoch_of(t))
    }

    /// The grouped delta stream the index was built from — the same
    /// `(instant, last-writer-wins deltas)` sequence as
    /// [`NetworkFib::changes_by_time`], reusable for the incremental
    /// loop census without a second pass over the history.
    pub fn deltas(&self) -> &[(SimTime, FibDeltas)] {
        &self.deltas
    }

    /// Runs the incremental loop census over the owned delta stream
    /// (identical output to
    /// [`loop_census`](crate::loopscan::loop_census) on the source
    /// history).
    pub fn loop_census(&self) -> Vec<crate::loopscan::LoopRecord> {
        crate::loopscan::loop_census_deltas(self.node_count, &self.deltas)
    }

    /// Whether the dense snapshot table is in use (as opposed to the
    /// sparse per-node fallback).
    pub fn is_dense(&self) -> bool {
        matches!(self.table, Table::Dense(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn p() -> Prefix {
        Prefix::new(0)
    }

    fn via(i: u32) -> Option<FibEntry> {
        Some(FibEntry::Via(n(i)))
    }

    fn sample_fib() -> NetworkFib {
        let mut fib = NetworkFib::new(3);
        fib.record(n(0), p(), SimTime::from_secs(1), Some(FibEntry::Local));
        fib.record(n(1), p(), SimTime::from_secs(1), via(0));
        fib.record(n(2), p(), SimTime::from_secs(2), via(1));
        fib.record(n(1), p(), SimTime::from_secs(5), None);
        fib
    }

    #[test]
    fn epoch_numbering_counts_changes_at_or_before() {
        let index = EpochIndex::build(&sample_fib(), p());
        assert_eq!(index.epoch_count(), 4);
        assert_eq!(
            index.boundaries(),
            &[
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(5)
            ]
        );
        assert_eq!(index.epoch_of(SimTime::ZERO), 0);
        assert_eq!(
            index.epoch_of(SimTime::from_secs(1)),
            1,
            "boundary inclusive"
        );
        assert_eq!(index.epoch_of(SimTime::from_millis(1500)), 1);
        assert_eq!(index.epoch_of(SimTime::from_secs(2)), 2);
        assert_eq!(index.epoch_of(SimTime::from_secs(100)), 3);
    }

    #[test]
    fn entries_match_direct_lookup() {
        let fib = sample_fib();
        let index = EpochIndex::build(&fib, p());
        assert!(index.is_dense());
        for t in [0u64, 1, 2, 3, 5, 9] {
            let t = SimTime::from_secs(t);
            for i in 0..3 {
                assert_eq!(
                    index.lookup(n(i), t),
                    fib.lookup(n(i), p(), t),
                    "node {i} at {t}"
                );
            }
        }
        assert_eq!(index.entry(n(1), 0), None, "epoch 0 predates every entry");
        assert_eq!(index.entry(n(1), 1), via(0));
        assert_eq!(index.entry(n(1), 3), None, "route lost in the last epoch");
    }

    #[test]
    fn sparse_fallback_agrees_with_dense() {
        let fib = sample_fib();
        let dense = EpochIndex::build(&fib, p());
        let sparse = EpochIndex::build_with_cap(&fib, p(), 0);
        assert!(!sparse.is_dense());
        for e in 0..dense.epoch_count() as u32 {
            for i in 0..3 {
                assert_eq!(dense.entry(n(i), e), sparse.entry(n(i), e));
            }
        }
        assert_eq!(dense.boundaries(), sparse.boundaries());
    }

    #[test]
    fn deltas_are_the_census_stream() {
        let fib = sample_fib();
        let index = EpochIndex::build(&fib, p());
        assert_eq!(index.deltas(), &fib.changes_by_time(p())[..]);
        assert_eq!(index.loop_census(), crate::loopscan::loop_census(&fib, p()));
    }

    #[test]
    fn dense_cells_decode_every_next_hop() {
        // A 110-node graph, the paper's largest: its last node and node 0
        // as next hops, next to a delivering and a routeless node.
        let mut fib = NetworkFib::new(110);
        fib.record(n(0), p(), SimTime::ZERO, via(109));
        fib.record(n(109), p(), SimTime::ZERO, via(0));
        fib.record(n(1), p(), SimTime::ZERO, Some(FibEntry::Local));
        let index = EpochIndex::build(&fib, p());
        assert!(index.is_dense());
        assert_eq!(index.entry(n(0), 1), via(109));
        assert_eq!(index.entry(n(109), 1), via(0));
        assert_eq!(index.entry(n(1), 1), Some(FibEntry::Local));
        assert_eq!(index.entry(n(2), 1), None);
        for entry in [None, Some(FibEntry::Local), via(0), via(109)] {
            assert_eq!(decode(encode(entry)), entry);
        }
    }

    #[test]
    fn empty_history_has_one_epoch() {
        let fib = NetworkFib::new(4);
        let index = EpochIndex::build(&fib, p());
        assert_eq!(index.epoch_count(), 1);
        assert_eq!(index.epoch_of(SimTime::from_secs(7)), 0);
        assert_eq!(index.entry(n(3), 0), None);
    }

    /// Records a random history for `prefix` from `(node, dt, hop)`
    /// changes on per-node clocks: each node's history in time order,
    /// any interleaving, and `dt = 0` rewrites an entry at the instant
    /// of the node's last change.
    fn record_random(fib: &mut NetworkFib, prefix: Prefix, raw: &[(u32, u32, Option<u32>)]) {
        let nodes = fib.node_count() as u32;
        let mut clock = vec![0u64; nodes as usize];
        for &(node, dt, hop) in raw {
            let node = node % nodes;
            let t = clock[node as usize] + u64::from(dt);
            clock[node as usize] = t;
            let entry = match hop.map(|h| h % nodes) {
                Some(h) if h != node => via(h),
                Some(_) => Some(FibEntry::Local),
                None => None,
            };
            fib.record(n(node), prefix, SimTime::from_nanos(t), entry);
        }
    }

    proptest! {
        /// For every node and instant, the epoch-indexed lookup equals
        /// the direct time-indexed history lookup — on both table
        /// layouts.
        #[test]
        fn lookup_equivalence_on_random_histories(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..10, proptest::option::of(0u32..8)), 0..50),
            nodes in 2u32..8,
            probes in proptest::collection::vec(0u64..60, 1..40),
        ) {
            let mut fib = NetworkFib::new(nodes as usize);
            record_random(&mut fib, p(), &raw);
            let dense = EpochIndex::build(&fib, p());
            let sparse = EpochIndex::build_with_cap(&fib, p(), 0);
            prop_assert!(dense.is_dense());
            for t in probes {
                let t = SimTime::from_nanos(t);
                for i in 0..nodes {
                    let reference = fib.lookup(n(i), p(), t);
                    prop_assert_eq!(dense.lookup(n(i), t), reference);
                    prop_assert_eq!(sparse.lookup(n(i), t), reference);
                }
            }
        }

        /// The sort-based grouping equals grouping every change of the
        /// prefix into ordered maps, the later write of a node at one
        /// instant replacing the earlier — with same-instant rewrites
        /// and changes to a second prefix mixed in.
        #[test]
        fn changes_by_time_equals_ordered_map_grouping(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..10, proptest::option::of(0u32..8)), 0..50),
            other in proptest::collection::vec(
                (0u32..8, 0u32..10, proptest::option::of(0u32..8)), 0..20),
            nodes in 2u32..8,
        ) {
            let mut fib = NetworkFib::new(nodes as usize);
            record_random(&mut fib, p(), &raw);
            record_random(&mut fib, Prefix::new(1), &other);
            let mut grouped: BTreeMap<SimTime, BTreeMap<NodeId, Option<FibEntry>>> =
                BTreeMap::new();
            for (node, prefix, t, entry) in fib.iter_changes() {
                if prefix == p() {
                    grouped.entry(t).or_default().insert(node, entry);
                }
            }
            let reference: Vec<(SimTime, FibDeltas)> = grouped
                .into_iter()
                .map(|(t, per_node)| (t, per_node.into_iter().collect()))
                .collect();
            prop_assert_eq!(fib.changes_by_time(p()), reference);
        }
    }
}
