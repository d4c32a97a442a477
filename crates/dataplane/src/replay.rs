//! Packet replay against a forwarding history.
//!
//! [`walk_packet`] traces one packet hop by hop through the
//! time-indexed [`NetworkFib`]: at each AS it looks up the entry in
//! effect *at the packet's current time*, so forwarding-table changes
//! that happen while the packet is in flight are honored exactly as in
//! a fully interleaved event simulation (`bgpsim-sim` cross-checks
//! this equivalence).
//!
//! [`replay_fleet`] is the production path: it replays a CBR fleet
//! against a per-prefix [`EpochIndex`] source by source, executing one
//! walk per `(source, launch epoch)` and accounting for the packets
//! that provably repeat it with arithmetic on the source's send times,
//! so only packets in flight across a FIB change are walked one by one.
//! [`walk_indexed_batch`] / [`walk_all_batched`] drive the same engine
//! packet by packet and return every fate. Fates and tallies are
//! bit-identical to per-packet [`walk_packet`] (property-tested here
//! and in CI); the naive walk is retained as the oracle.

use bgpsim_core::{FibEntry, Prefix};
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;

use crate::epoch::EpochIndex;
use crate::fib::NetworkFib;
use crate::packet::{FateTally, Packet, PacketFate};
use crate::source::CbrSource;

/// Per-hop record of a packet's trajectory (optional detailed output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The AS the packet was at.
    pub node: NodeId,
    /// The time it was there.
    pub at: SimTime,
}

/// Walks `packet` through `fib`, returning its fate.
///
/// Each hop costs `link_delay`; the TTL is decremented once per AS hop
/// (the paper's per-AS TTL model, §4.2).
///
/// # Examples
///
/// ```
/// use bgpsim_dataplane::fib::NetworkFib;
/// use bgpsim_dataplane::packet::{Packet, PacketFate, DEFAULT_TTL};
/// use bgpsim_dataplane::replay::walk_packet;
/// use bgpsim_core::{FibEntry, Prefix};
/// use bgpsim_netsim::time::{SimDuration, SimTime};
/// use bgpsim_topology::NodeId;
///
/// let p = Prefix::new(0);
/// let mut fib = NetworkFib::new(2);
/// fib.record(NodeId::new(0), p, SimTime::ZERO, Some(FibEntry::Local));
/// fib.record(NodeId::new(1), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(0))));
/// let pkt = Packet { id: 0, src: NodeId::new(1), prefix: p, ttl: DEFAULT_TTL, sent_at: SimTime::from_secs(1) };
/// let fate = walk_packet(&fib, &pkt, SimDuration::from_millis(2));
/// assert!(fate.is_delivered());
/// ```
pub fn walk_packet(fib: &NetworkFib, packet: &Packet, link_delay: SimDuration) -> PacketFate {
    walk_packet_traced(fib, packet, link_delay, None)
}

/// Like [`walk_packet`], but optionally records every hop into `trace`.
pub fn walk_packet_traced(
    fib: &NetworkFib,
    packet: &Packet,
    link_delay: SimDuration,
    mut trace: Option<&mut Vec<Hop>>,
) -> PacketFate {
    let mut node = packet.src;
    let mut at = packet.sent_at;
    let mut ttl = packet.ttl;
    if let Some(tr) = trace.as_deref_mut() {
        // A walk visits at most ttl + 1 nodes (one per TTL decrement
        // plus the fate node): reserve the bound once instead of
        // growing per hop.
        tr.reserve((packet.ttl as usize + 1).saturating_sub(tr.len()));
    }
    loop {
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(Hop { node, at });
        }
        match fib.lookup(node, packet.prefix, at) {
            Some(FibEntry::Local) => {
                return PacketFate::Delivered {
                    at,
                    hops: packet.ttl - ttl,
                }
            }
            None => return PacketFate::NoRoute { at, node },
            Some(FibEntry::Via(next)) => {
                if ttl == 0 {
                    return PacketFate::TtlExhausted { at, node };
                }
                ttl -= 1;
                at += link_delay;
                node = next;
            }
        }
    }
}

/// Walks a batch of packets and returns their fates in order.
///
/// This is the naive per-packet oracle: one independent time-indexed
/// FIB lookup per hop. Production measurement goes through
/// [`walk_all_batched`], which must (and is property-tested to)
/// produce identical fates.
pub fn walk_all(fib: &NetworkFib, packets: &[Packet], link_delay: SimDuration) -> Vec<PacketFate> {
    packets
        .iter()
        .map(|p| walk_packet(fib, p, link_delay))
        .collect()
}

/// Counters from one replay ([`replay_fleet`], [`walk_indexed_batch`]
/// or [`walk_all_batched_stats`]). Both entry points run the same
/// engine, so they report the same values for the same fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Packets replayed.
    pub packets: u64,
    /// Packets accounted for by their `(source, launch epoch)` walk
    /// without being walked themselves: one memo check each on the
    /// per-packet path, one division per epoch on the fleet path.
    pub memo_hits: u64,
    /// Walks actually executed (`packets - memo_hits`): the first
    /// packet of each `(source, launch epoch)` plus every packet whose
    /// reconstructed fate instant reaches the epoch boundary.
    pub walks: u64,
    /// Epoch boundaries (distinct FIB change instants) in the indexes
    /// the batch ran against.
    pub epochs: u64,
    /// Table lookups the executed walks made.
    pub hops: u64,
    /// Table lookups the executed walks were spared by jumping whole
    /// turns of an in-epoch forwarding cycle: walked hop by hop they
    /// would have made `hops + hops_skipped`.
    pub hops_skipped: u64,
}

impl ReplayStats {
    /// Fraction of packets served from the memo, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.packets as f64
        }
    }

    /// Folds another batch's counters into this one (all sums).
    pub fn merge(&mut self, other: &ReplayStats) {
        self.packets += other.packets;
        self.memo_hits += other.memo_hits;
        self.walks += other.walks;
        self.epochs += other.epochs;
        self.hops += other.hops;
        self.hops_skipped += other.hops_skipped;
    }
}

/// How a memoized walk ended; together with the step count this
/// reconstructs the exact [`PacketFate`] for any packet that provably
/// repeats the same trajectory.
#[derive(Debug, Clone, Copy)]
enum MemoEnd {
    Delivered,
    NoRoute(NodeId),
    TtlExhausted(NodeId),
}

/// A send-time-relative walk: `steps` hops of `link_delay` each, then
/// `end`. Valid for reuse only while the whole walk stays inside the
/// launch epoch (checked at lookup time against the epoch boundary).
#[derive(Debug, Clone, Copy)]
struct MemoWalk {
    steps: u32,
    end: MemoEnd,
}

impl MemoWalk {
    /// The fate of a packet whose walk ends at `at` (exactly
    /// `sent_at + steps × link_delay`, matching the naive walk's
    /// repeated `at += link_delay` in u64 nanoseconds).
    fn fate_at(&self, at: SimTime) -> PacketFate {
        match self.end {
            MemoEnd::Delivered => PacketFate::Delivered {
                at,
                hops: self.steps,
            },
            MemoEnd::NoRoute(node) => PacketFate::NoRoute { at, node },
            MemoEnd::TtlExhausted(node) => PacketFate::TtlExhausted { at, node },
        }
    }
}

/// What a memoized walk is valid for: source, launch epoch, TTL.
type MemoKey = (NodeId, usize, u32);

/// The replay engine behind every entry point: executes walks through
/// one [`EpochIndex`], remembers the last single-epoch walk, and counts
/// what it did.
///
/// Callers feed it packets source-major and in send order. Then the
/// packets of one [`MemoKey`] are contiguous and a one-slot memo hits
/// exactly where a map over all keys would.
struct Replayer<'a> {
    index: &'a EpochIndex,
    link_delay: SimDuration,
    memo: Option<(MemoKey, MemoWalk)>,
    /// Cycle detection, per node: the stamp of the walk segment that
    /// last visited it, and the walk's step count at that visit. A
    /// segment is the part of one walk inside one epoch and takes a
    /// fresh stamp, so a matching stamp reads "this walk was here
    /// before and the forwarding graph has not changed since".
    seen: Vec<(u32, u32)>,
    stamp: u32,
    stats: ReplayStats,
}

impl<'a> Replayer<'a> {
    fn new(index: &'a EpochIndex, link_delay: SimDuration) -> Self {
        Replayer {
            index,
            link_delay,
            memo: None,
            seen: vec![(0, 0); index.node_count()],
            stamp: 0,
            stats: ReplayStats {
                epochs: index.boundaries().len() as u64,
                ..ReplayStats::default()
            },
        }
    }

    /// The memoized walk, if it was made under `key`.
    fn memo(&self, key: MemoKey) -> Option<MemoWalk> {
        self.memo.filter(|&(k, _)| k == key).map(|(_, walk)| walk)
    }

    /// The fate of one packet sent in epoch `launch`: reconstructed
    /// from the memoized walk of its key iff the reconstructed fate
    /// instant still precedes the epoch boundary, walked otherwise.
    ///
    /// Inside a frozen forwarding graph the trajectory is provably the
    /// memoized one, so the reconstruction is bit-identical to
    /// [`walk_packet`]. Strict: a lookup exactly at the boundary
    /// already sees the next epoch.
    fn packet(&mut self, src: NodeId, ttl: u32, sent_at: SimTime, launch: usize) -> PacketFate {
        self.stats.packets += 1;
        let key = (src, launch, ttl);
        if let Some(walk) = self.memo(key) {
            let fate_at = sent_at + self.link_delay * u64::from(walk.steps);
            let boundary = self.index.boundaries().get(launch);
            if boundary.is_none_or(|&b| fate_at < b) {
                self.stats.memo_hits += 1;
                return walk.fate_at(fate_at);
            }
        }
        self.stats.walks += 1;
        let (walk, at, single_epoch) = self.walk(src, ttl, sent_at, launch);
        if single_epoch {
            self.memo = Some((key, walk));
        }
        walk.fate_at(at)
    }

    /// A stamp no `seen` slot holds.
    fn fresh_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill((0, 0));
            self.stamp = 1;
        }
        self.stamp
    }

    /// One full walk through the epoch table from a known launch epoch.
    /// Returns the send-time-relative [`MemoWalk`], the fate instant,
    /// and whether the walk stayed inside its launch epoch
    /// (= memoizable).
    ///
    /// A walk that comes back to a node it left `cycle` hops ago in the
    /// same epoch is on a forwarding cycle of that frozen graph. Every
    /// further hop repeats it for as long as the lookup still precedes
    /// the boundary and the TTL is not spent, so whole turns are taken
    /// at once: `min(ttl, lookups left) / cycle × cycle` hops. The state
    /// after the jump is the one the hop-by-hop walk reaches (same node,
    /// `at` advanced by the same u64 sum), and the fewer-than-`cycle`
    /// hops that remain in the epoch are walked.
    fn walk(
        &mut self,
        src: NodeId,
        ttl: u32,
        sent_at: SimTime,
        launch: usize,
    ) -> (MemoWalk, SimTime, bool) {
        let index = self.index;
        let boundaries = index.boundaries();
        let mut node = src;
        let mut at = sent_at;
        let mut ttl = ttl;
        let mut steps = 0u32;
        let mut epoch = launch;
        let mut stamp = self.fresh_stamp();
        let end = loop {
            // The hop times of one walk are nondecreasing, so this
            // cursor is monotone: O(1) amortized per hop.
            let entered = epoch;
            while boundaries.get(epoch).is_some_and(|&b| b <= at) {
                epoch += 1;
            }
            if epoch != entered {
                stamp = self.fresh_stamp();
            }
            let (seen_stamp, seen_steps) = self.seen[node.index()];
            if seen_stamp == stamp {
                let cycle = u64::from(steps - seen_steps);
                // Lookups from this one on that still read this epoch.
                let lookups_left = match boundaries.get(epoch) {
                    Some(&b) if !self.link_delay.is_zero() => {
                        (b - at).as_nanos().div_ceil(self.link_delay.as_nanos())
                    }
                    _ => u64::MAX,
                };
                let skip = u64::from(ttl).min(lookups_left) / cycle * cycle;
                // Fewer than `cycle` hops are left in this epoch, so
                // nothing in it is visited twice again.
                stamp = self.fresh_stamp();
                if skip > 0 {
                    // `skip <= ttl`, so it fits the u32 counters.
                    ttl -= skip as u32;
                    steps += skip as u32;
                    at += self.link_delay * skip;
                    self.stats.hops_skipped += skip;
                    continue;
                }
            }
            self.seen[node.index()] = (stamp, steps);
            self.stats.hops += 1;
            match index.entry(node, epoch as u32) {
                Some(FibEntry::Local) => break MemoEnd::Delivered,
                None => break MemoEnd::NoRoute(node),
                Some(FibEntry::Via(_)) if ttl == 0 => break MemoEnd::TtlExhausted(node),
                Some(FibEntry::Via(next)) => {
                    ttl -= 1;
                    steps += 1;
                    at += self.link_delay;
                    node = next;
                }
            }
        };
        (MemoWalk { steps, end }, at, epoch == launch)
    }
}

/// Fleet replay: the aggregate fates of every packet `sources` send
/// toward `index.prefix()` in `[start, end)` with initial TTL `ttl`,
/// plus the [`ReplayStats`] — without materializing a packet or a fate.
///
/// A [`CbrSource`]'s send times are an arithmetic progression, and
/// inside one FIB epoch a packet's trajectory is a pure function of
/// its source. So per `(source, launch epoch)` one walk is executed,
/// and if it stayed inside the epoch with `steps` hops, the later
/// packets of that epoch whose reconstructed fate instant
/// `sent + steps × link_delay` still precedes the boundary are counted
/// with one division: they share the walk's fate and their instants
/// run from the first to the last of them. Only the remainder — the
/// packets in flight when the FIB changes — is walked one by one.
///
/// The tally equals tallying [`walk_all`] over
/// [`generate_packets`]`(sources, ..)`, and the stats equal
/// [`walk_indexed_batch`]'s on the same packets (property-tested).
pub fn replay_fleet(
    index: &EpochIndex,
    sources: &[CbrSource],
    ttl: u32,
    start: SimTime,
    end: SimTime,
    link_delay: SimDuration,
) -> (FateTally, ReplayStats) {
    let boundaries = index.boundaries();
    let mut engine = Replayer::new(index, link_delay);
    let mut tally = FateTally::default();
    for source in sources {
        let total = source.sends_before(start, end);
        let mut launch = index.epoch_of(source.send_time(start, 0)) as usize;
        let mut k = 0;
        while k < total {
            let sent_at = source.send_time(start, k);
            while boundaries.get(launch).is_some_and(|&b| b <= sent_at) {
                launch += 1;
            }
            tally.record(&engine.packet(source.node(), ttl, sent_at, launch));
            k += 1;
            let Some(walk) = engine.memo((source.node(), launch, ttl)) else {
                continue;
            };
            // The packets after this one that pass `packet`'s hit
            // predicate are a prefix of the rest: send times only grow.
            let flight = link_delay * u64::from(walk.steps);
            let hit_end = match boundaries.get(launch) {
                Some(&b) => source.sends_before(start, b - flight).min(total),
                None => total,
            };
            if hit_end > k {
                let hits = hit_end - k;
                let first = walk.fate_at(source.send_time(start, k) + flight);
                let last_at = source.send_time(start, hit_end - 1) + flight;
                tally.record_run(&first, hits, last_at);
                engine.stats.packets += hits;
                engine.stats.memo_hits += hits;
                k = hit_end;
            }
        }
    }
    (tally, engine.stats)
}

/// Batched replay: like [`walk_all`] (identical fates, in order), but
/// through per-prefix [`EpochIndex`]es with single-epoch memoization.
///
/// See [`walk_indexed_batch`] for the mechanics. Packets are grouped
/// by prefix and each group gets its own index; callers that already
/// built an index (one per run in `bgpsim-metrics`) should use
/// [`walk_indexed_batch`] directly.
pub fn walk_all_batched(
    fib: &NetworkFib,
    packets: &[Packet],
    link_delay: SimDuration,
) -> Vec<PacketFate> {
    walk_all_batched_stats(fib, packets, link_delay).0
}

/// [`walk_all_batched`] plus the batch's [`ReplayStats`].
pub fn walk_all_batched_stats(
    fib: &NetworkFib,
    packets: &[Packet],
    link_delay: SimDuration,
) -> (Vec<PacketFate>, ReplayStats) {
    let mut groups: std::collections::BTreeMap<Prefix, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, p) in packets.iter().enumerate() {
        groups.entry(p.prefix).or_default().push(i);
    }
    let mut fates: Vec<Option<PacketFate>> = vec![None; packets.len()];
    let mut stats = ReplayStats::default();
    for (prefix, order) in groups {
        let index = EpochIndex::build(fib, prefix);
        stats.merge(&walk_group(&index, packets, order, link_delay, &mut fates));
    }
    let fates = fates
        .into_iter()
        .map(|f| f.expect("every packet is in exactly one prefix group"))
        .collect();
    (fates, stats)
}

/// Replays `packets` (all toward `index.prefix()`) against a prebuilt
/// [`EpochIndex`], returning fates in packet order plus the batch's
/// [`ReplayStats`].
///
/// The per-packet face of the engine [`replay_fleet`] drives: packets
/// are processed source-major in send order (the order
/// [`generate_packets`] emits) behind a monotone launch-epoch cursor;
/// each executed walk advances its own epoch cursor per hop (`O(1)`
/// amortized — no per-hop binary search), does an `O(1)` table lookup
/// and skips whole turns of in-epoch cycles. A walk that never leaves
/// its launch epoch is memoized under `(source, launch epoch, TTL)` as
/// a send-time-relative trajectory; the following packets of that key
/// reuse it iff their reconstructed fate time still precedes the epoch
/// boundary, so every fate is bit-identical to what [`walk_packet`]
/// would compute.
pub fn walk_indexed_batch(
    index: &EpochIndex,
    packets: &[Packet],
    link_delay: SimDuration,
) -> (Vec<PacketFate>, ReplayStats) {
    debug_assert!(
        packets.iter().all(|p| p.prefix == index.prefix()),
        "every packet must target the indexed prefix"
    );
    let mut fates: Vec<Option<PacketFate>> = vec![None; packets.len()];
    let order = (0..packets.len()).collect();
    let stats = walk_group(index, packets, order, link_delay, &mut fates);
    let fates = fates
        .into_iter()
        .map(|f| f.expect("every packet was walked"))
        .collect();
    (fates, stats)
}

/// Replays one prefix group (`order` = its packet indices) through
/// `index`, filling `fates` slots and returning the group's stats.
fn walk_group(
    index: &EpochIndex,
    packets: &[Packet],
    mut order: Vec<usize>,
    link_delay: SimDuration,
    fates: &mut [Option<PacketFate>],
) -> ReplayStats {
    let boundaries = index.boundaries();
    // Stable, and a no-op pass on `generate_packets` output.
    order.sort_by_key(|&i| (packets[i].src, packets[i].sent_at));
    let mut engine = Replayer::new(index, link_delay);
    let mut source = None;
    let mut launch = 0usize;
    for i in order {
        let packet = &packets[i];
        if source != Some(packet.src) {
            source = Some(packet.src);
            launch = index.epoch_of(packet.sent_at) as usize;
        }
        // Within a source send times arrive sorted, so the launch
        // epoch only moves forward.
        while boundaries.get(launch).is_some_and(|&b| b <= packet.sent_at) {
            launch += 1;
        }
        fates[i] = Some(engine.packet(packet.src, packet.ttl, packet.sent_at, launch));
    }
    engine.stats
}

/// Generates the packets sent by `sources` in `[start, end)` toward
/// `prefix`, ids assigned in deterministic (source-major) order.
pub fn generate_packets(
    sources: &[CbrSource],
    prefix: Prefix,
    ttl: u32,
    start: SimTime,
    end: SimTime,
) -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut id = 0u64;
    for src in sources {
        for sent_at in src.send_times(start, end) {
            packets.push(Packet {
                id,
                src: src.node(),
                prefix,
                ttl,
                sent_at,
            });
            id += 1;
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::DEFAULT_TTL;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn p() -> Prefix {
        Prefix::new(0)
    }

    fn d2() -> SimDuration {
        SimDuration::from_millis(2)
    }

    fn pkt(src: u32, at: SimTime) -> Packet {
        Packet {
            id: 0,
            src: n(src),
            prefix: p(),
            ttl: DEFAULT_TTL,
            sent_at: at,
        }
    }

    /// A 3-node chain 2 → 1 → 0 with stable routes.
    fn chain_fib() -> NetworkFib {
        let mut fib = NetworkFib::new(3);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(1), p(), SimTime::ZERO, Some(FibEntry::Via(n(0))));
        fib.record(n(2), p(), SimTime::ZERO, Some(FibEntry::Via(n(1))));
        fib
    }

    #[test]
    fn delivery_counts_hops_and_delay() {
        let fib = chain_fib();
        let fate = walk_packet(&fib, &pkt(2, SimTime::from_secs(1)), d2());
        match fate {
            PacketFate::Delivered { at, hops } => {
                assert_eq!(hops, 2);
                assert_eq!(at, SimTime::from_millis(1004));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn no_route_drops_at_first_routeless_node() {
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_secs(5), None);
        let fate = walk_packet(&fib, &pkt(2, SimTime::from_secs(6)), d2());
        match fate {
            PacketFate::NoRoute { node, .. } => assert_eq!(node, n(1)),
            other => panic!("expected no-route, got {other:?}"),
        }
    }

    #[test]
    fn two_node_loop_exhausts_ttl_at_256ms() {
        // The paper's Figure 1(b): 5 → 6 and 6 → 5.
        let mut fib = NetworkFib::new(7);
        fib.record(n(5), p(), SimTime::ZERO, Some(FibEntry::Via(n(6))));
        fib.record(n(6), p(), SimTime::ZERO, Some(FibEntry::Via(n(5))));
        let fate = walk_packet(&fib, &pkt(5, SimTime::from_secs(1)), d2());
        match fate {
            PacketFate::TtlExhausted { at, node } => {
                // 128 hops × 2 ms = 256 ms after send.
                assert_eq!(at, SimTime::from_millis(1256));
                assert!(node == n(5) || node == n(6));
            }
            other => panic!("expected TTL exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn packet_escapes_loop_that_resolves_in_flight() {
        // Loop 5↔6 forms at t=0 and resolves at t=1.1: node 6 switches
        // to a working path via 0. A packet sent at t=1 loops briefly,
        // then escapes and is delivered — the "packets which encountered
        // and escaped a loop" case.
        let mut fib = NetworkFib::new(7);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(5), p(), SimTime::ZERO, Some(FibEntry::Via(n(6))));
        fib.record(n(6), p(), SimTime::ZERO, Some(FibEntry::Via(n(5))));
        fib.record(
            n(6),
            p(),
            SimTime::from_millis(1100),
            Some(FibEntry::Via(n(0))),
        );
        let fate = walk_packet(&fib, &pkt(5, SimTime::from_secs(1)), d2());
        assert!(fate.is_delivered(), "got {fate:?}");
        if let PacketFate::Delivered { hops, .. } = fate {
            assert!(hops > 2, "must have circulated before escaping");
        }
    }

    #[test]
    fn source_with_no_route_drops_immediately() {
        let fib = NetworkFib::new(3);
        let fate = walk_packet(&fib, &pkt(2, SimTime::ZERO), d2());
        match fate {
            PacketFate::NoRoute { node, at } => {
                assert_eq!(node, n(2));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected no-route, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_trajectory() {
        let fib = chain_fib();
        let mut trace = Vec::new();
        let _ = walk_packet_traced(&fib, &pkt(2, SimTime::ZERO), d2(), Some(&mut trace));
        let nodes: Vec<NodeId> = trace.iter().map(|h| h.node).collect();
        assert_eq!(nodes, vec![n(2), n(1), n(0)]);
        assert_eq!(trace[1].at, SimTime::from_millis(2));
    }

    #[test]
    fn zero_ttl_exhausts_before_any_hop() {
        let fib = chain_fib();
        let packet = Packet {
            ttl: 0,
            ..pkt(2, SimTime::ZERO)
        };
        assert!(walk_packet(&fib, &packet, d2()).is_ttl_exhausted());
    }

    #[test]
    fn generate_packets_is_deterministic_and_ordered() {
        use crate::source::CbrSource;
        let sources = vec![
            CbrSource::new(n(1), SimDuration::from_millis(100), SimDuration::ZERO),
            CbrSource::new(
                n(2),
                SimDuration::from_millis(100),
                SimDuration::from_millis(50),
            ),
        ];
        let pkts = generate_packets(
            &sources,
            p(),
            DEFAULT_TTL,
            SimTime::ZERO,
            SimTime::from_millis(300),
        );
        assert_eq!(pkts.len(), 6);
        // Ids are unique and source-major.
        let ids: Vec<u64> = pkts.iter().map(|pk| pk.id).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        assert!(pkts[..3].iter().all(|pk| pk.src == n(1)));
        assert!(pkts[3..].iter().all(|pk| pk.src == n(2)));
    }

    #[test]
    fn walk_all_matches_individual_walks() {
        let fib = chain_fib();
        let packets = vec![pkt(2, SimTime::ZERO), pkt(1, SimTime::from_secs(1))];
        let fates = walk_all(&fib, &packets, d2());
        assert_eq!(fates.len(), 2);
        assert_eq!(fates[0], walk_packet(&fib, &packets[0], d2()));
        assert_eq!(fates[1], walk_packet(&fib, &packets[1], d2()));
    }

    #[test]
    fn batched_matches_naive_on_chain() {
        let fib = chain_fib();
        let packets = vec![
            pkt(2, SimTime::ZERO),
            pkt(1, SimTime::from_secs(1)),
            pkt(2, SimTime::from_secs(2)),
        ];
        assert_eq!(
            walk_all_batched(&fib, &packets, d2()),
            walk_all(&fib, &packets, d2())
        );
    }

    #[test]
    fn memo_hits_repeat_packets_and_fates_stay_exact() {
        // Same source, same TTL, stable FIB: all but the first packet
        // must come from the memo, with bit-identical fates.
        let fib = chain_fib();
        let packets: Vec<Packet> = (0..50)
            .map(|i| pkt(2, SimTime::from_millis(10 * i)))
            .collect();
        let (fates, stats) = walk_all_batched_stats(&fib, &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert_eq!(stats.packets, 50);
        assert_eq!(stats.walks, 1);
        assert_eq!(stats.memo_hits, 49);
        assert!((stats.hit_rate() - 0.98).abs() < 1e-9);
    }

    #[test]
    fn memo_is_not_reused_across_epoch_boundary() {
        // Node 1 loses its route at t=100ms. A packet sent just before
        // the boundary would cross it in flight, so the memoized
        // pre-boundary walk must NOT be replayed for it.
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_millis(100), None);
        let packets = vec![
            pkt(2, SimTime::ZERO),             // delivered, memoized
            pkt(2, SimTime::from_millis(99)),  // crosses boundary mid-walk
            pkt(2, SimTime::from_millis(200)), // post-boundary epoch
        ];
        let (fates, stats) = walk_all_batched_stats(&fib, &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert!(fates[0].is_delivered());
        assert!(matches!(fates[1], PacketFate::NoRoute { .. }));
        assert!(matches!(fates[2], PacketFate::NoRoute { .. }));
        // The second packet shares the first's key but fails the
        // boundary check; the third launches in a new epoch.
        assert_eq!(stats.memo_hits, 0);
        assert_eq!(stats.walks, 3);
    }

    #[test]
    fn batched_preserves_input_order_across_unsorted_sends() {
        // Fates come back in packet order even though the batch is
        // internally processed in send-time order.
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_secs(5), None);
        let packets = vec![
            pkt(2, SimTime::from_secs(6)), // late packet first in input
            pkt(2, SimTime::ZERO),
            pkt(1, SimTime::from_secs(7)),
        ];
        let fates = walk_all_batched(&fib, &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert!(matches!(fates[0], PacketFate::NoRoute { node, .. } if node == n(1)));
        assert!(fates[1].is_delivered());
        assert!(matches!(fates[2], PacketFate::NoRoute { node, .. } if node == n(1)));
    }

    #[test]
    fn batched_groups_multiple_prefixes() {
        let p1 = Prefix::new(1);
        let mut fib = chain_fib();
        // Prefix 1 has the reverse orientation: 0 → 1 → 2 (local at 2).
        fib.record(n(2), p1, SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(1), p1, SimTime::ZERO, Some(FibEntry::Via(n(2))));
        fib.record(n(0), p1, SimTime::ZERO, Some(FibEntry::Via(n(1))));
        let packets = vec![
            pkt(2, SimTime::ZERO),
            Packet {
                prefix: p1,
                ..pkt(0, SimTime::ZERO)
            },
        ];
        assert_eq!(
            walk_all_batched(&fib, &packets, d2()),
            walk_all(&fib, &packets, d2())
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let fib = chain_fib();
        let (fates, stats) = walk_all_batched_stats(&fib, &[], d2());
        assert!(fates.is_empty());
        assert_eq!(stats, ReplayStats::default());
    }

    #[test]
    fn replay_stats_merge_sums() {
        let mut a = ReplayStats {
            packets: 10,
            memo_hits: 4,
            walks: 6,
            epochs: 3,
            hops: 40,
            hops_skipped: 7,
        };
        let b = ReplayStats {
            packets: 2,
            memo_hits: 1,
            walks: 1,
            epochs: 5,
            hops: 2,
            hops_skipped: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ReplayStats {
                packets: 12,
                memo_hits: 5,
                walks: 7,
                epochs: 8,
                hops: 42,
                hops_skipped: 8,
            }
        );
        assert_eq!(ReplayStats::default().hit_rate(), 0.0);
    }

    /// One packet from `src` at `at` with TTL `ttl`, through a fresh
    /// engine: its fate and the engine's counters, after checking the
    /// fate against the hop-by-hop oracle and the lookup accounting
    /// against the oracle's trajectory length.
    fn walk_one(
        fib: &NetworkFib,
        src: u32,
        ttl: u32,
        at: SimTime,
        delay: SimDuration,
    ) -> (PacketFate, ReplayStats) {
        let packet = Packet {
            ttl,
            ..pkt(src, at)
        };
        let index = EpochIndex::build(fib, p());
        let (fates, stats) = walk_indexed_batch(&index, &[packet], delay);
        let mut trace = Vec::new();
        let oracle = walk_packet_traced(fib, &packet, delay, Some(&mut trace));
        assert_eq!(fates[0], oracle);
        assert_eq!(stats.hops + stats.hops_skipped, trace.len() as u64);
        (fates[0], stats)
    }

    /// 3 → 2 → 1 ⇄ 0: a two-hop tail into a two-node cycle.
    fn tail_and_cycle_fib() -> NetworkFib {
        let mut fib = NetworkFib::new(4);
        fib.record(n(3), p(), SimTime::ZERO, Some(FibEntry::Via(n(2))));
        fib.record(n(2), p(), SimTime::ZERO, Some(FibEntry::Via(n(1))));
        fib.record(n(1), p(), SimTime::ZERO, Some(FibEntry::Via(n(0))));
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Via(n(1))));
        fib
    }

    #[test]
    fn cycle_skip_costs_the_tail_plus_one_turn() {
        let fib = tail_and_cycle_fib();
        let (fate, stats) = walk_one(&fib, 3, DEFAULT_TTL, SimTime::from_secs(1), d2());
        // 128 hops: 2 of tail, 126 = 63 turns of cycle. Node 1 is met
        // again after 4 lookups with 124 hops of TTL left: 62 turns are
        // skipped and the 63rd is not needed, the TTL is spent at 1.
        assert_eq!(
            fate,
            PacketFate::TtlExhausted {
                at: SimTime::from_millis(1256),
                node: n(1)
            }
        );
        assert_eq!(stats.hops_skipped, 124);
        assert_eq!(stats.hops, 5);
    }

    #[test]
    fn cycle_skip_walks_the_turn_the_ttl_cuts_short() {
        // TTL 7 from node 1: one turn to find the cycle (2 hops), then
        // 5 hops of TTL left = 2 whole turns skipped + 1 hop walked.
        let fib = tail_and_cycle_fib();
        let (fate, stats) = walk_one(&fib, 1, 7, SimTime::ZERO, d2());
        assert_eq!(
            fate,
            PacketFate::TtlExhausted {
                at: SimTime::from_millis(14),
                node: n(0)
            }
        );
        assert_eq!(stats.hops_skipped, 4);
        assert_eq!(stats.hops, 4);
    }

    #[test]
    fn cycle_skip_stops_at_the_boundary_when_the_loop_resolves_mid_flight() {
        // The packet_escapes_loop_that_resolves_in_flight history: the
        // 5 ⇄ 6 loop ends at 1100 ms when 6 switches to 0. The packet
        // is back at 5 at 1004 ms with 48 lookups left before the
        // boundary: 24 turns are skipped to 1100 ms exactly, where the
        // lookup at 5 is already in the new epoch.
        let mut fib = NetworkFib::new(7);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(5), p(), SimTime::ZERO, Some(FibEntry::Via(n(6))));
        fib.record(n(6), p(), SimTime::ZERO, Some(FibEntry::Via(n(5))));
        let resolve = SimTime::from_millis(1100);
        fib.record(n(6), p(), resolve, Some(FibEntry::Via(n(0))));
        let (fate, stats) = walk_one(&fib, 5, DEFAULT_TTL, SimTime::from_secs(1), d2());
        assert_eq!(
            fate,
            PacketFate::Delivered {
                at: SimTime::from_millis(1104),
                hops: 52
            }
        );
        assert_eq!(stats.hops_skipped, 48);
        assert_eq!(stats.hops, 5);

        // Sent 2 ms later, the packet is back at 5 at 1006 ms with 47
        // lookups left: 23 turns are skipped to 1098 ms, the hop to 6
        // is walked, and the lookup there at 1100 ms sees the new route.
        let (fate, stats) = walk_one(&fib, 5, DEFAULT_TTL, SimTime::from_millis(1002), d2());
        assert_eq!(
            fate,
            PacketFate::Delivered {
                at: SimTime::from_millis(1102),
                hops: 50
            }
        );
        assert_eq!(stats.hops_skipped, 46);
        assert_eq!(stats.hops, 5);
    }

    #[test]
    fn cycle_skip_with_zero_link_delay_spends_the_ttl_in_place() {
        // No time passes, so no boundary is ever reached: the loop that
        // resolves at 1100 ms holds the packet until its TTL is gone.
        let mut fib = tail_and_cycle_fib();
        fib.record(n(0), p(), SimTime::from_millis(1100), Some(FibEntry::Local));
        let at = SimTime::from_secs(1);
        let (fate, stats) = walk_one(&fib, 3, 9, at, SimDuration::ZERO);
        assert_eq!(fate, PacketFate::TtlExhausted { at, node: n(0) });
        assert_eq!(stats.hops_skipped, 4);
    }

    #[test]
    fn stamp_wrap_forgets_every_visit() {
        let fib = tail_and_cycle_fib();
        let index = EpochIndex::build(&fib, p());
        let mut engine = Replayer::new(&index, d2());
        // Slots that claim a visit under the stamp the wrap lands on.
        engine.seen.fill((1, 0));
        engine.stamp = u32::MAX;
        let at = SimTime::from_secs(1);
        let fate = engine.packet(n(3), DEFAULT_TTL, at, 1);
        assert_eq!(fate, walk_packet(&fib, &pkt(3, at), d2()));
        assert_eq!((engine.stats.hops, engine.stats.hops_skipped), (5, 124));
        assert!(engine.stamp < 8, "stamps restart after the wrap");
    }

    #[test]
    fn fleet_counts_hits_arithmetically_and_walks_the_crossers() {
        // Node 1 loses its route at 1 s. Source 2 sends every 100 ms
        // from 30 ms on, 2 hops and 4 ms from delivery: the packet sent
        // at 930 ms is the last one home, none is in flight at 1 s.
        // Source 1 sends every 3 ms from 1 ms on and is 1 hop from
        // delivery: the packet sent at 997 ms arrives at 999 ms, the
        // one sent at 1000 ms already launches in the next epoch.
        let mut fib = chain_fib();
        fib.record(n(1), p(), SimTime::from_secs(1), None);
        let index = EpochIndex::build(&fib, p());
        let sources = [
            CbrSource::new(
                n(2),
                SimDuration::from_millis(100),
                SimDuration::from_millis(30),
            ),
            CbrSource::new(
                n(1),
                SimDuration::from_millis(3),
                SimDuration::from_millis(1),
            ),
        ];
        let (start, end) = (SimTime::ZERO, SimTime::from_millis(1500));
        let (tally, stats) = replay_fleet(&index, &sources, DEFAULT_TTL, start, end, d2());
        let packets = generate_packets(&sources, p(), DEFAULT_TTL, start, end);
        assert_eq!(
            tally,
            FateTally::from_fates(&walk_all(&fib, &packets, d2()))
        );
        assert_eq!(tally.delivered, 10 + 333);
        assert_eq!(tally.no_route, 5 + 167);
        assert_eq!(stats, walk_indexed_batch(&index, &packets, d2()).1);
        assert_eq!(stats.walks, 4, "one per (source, epoch), no crossers");

        // With a 2 ms phase source 1 sends at 998 ms: that packet is in
        // flight at 1 s, finds node 0's entry unchanged and is
        // delivered by a walk of its own.
        let crossing = [CbrSource::new(
            n(1),
            SimDuration::from_millis(3),
            SimDuration::from_millis(2),
        )];
        let (tally, stats) = replay_fleet(&index, &crossing, DEFAULT_TTL, start, end, d2());
        assert_eq!((tally.delivered, tally.no_route), (333, 167));
        assert_eq!(stats.walks, 3);
    }

    /// Builds a random FIB history from `(node, dt, hop)` triples using
    /// per-node clocks (each history time-ordered, global interleaving
    /// arbitrary) — the same scheme as the loop-census proptests.
    fn random_fib(nodes: u32, raw: &[(u32, u32, Option<u32>)]) -> NetworkFib {
        let mut fib = NetworkFib::new(nodes as usize);
        let mut clock = vec![0u64; nodes as usize];
        for &(node, dt, hop) in raw {
            let node = node % nodes;
            let t = clock[node as usize] + u64::from(dt);
            clock[node as usize] = t;
            let entry = match hop.map(|h| h % nodes) {
                Some(h) if h != node => Some(FibEntry::Via(n(h))),
                Some(_) => Some(FibEntry::Local),
                None => None,
            };
            fib.record(n(node), p(), SimTime::from_nanos(t), entry);
        }
        fib
    }

    /// Maps raw `(src, sent_at, ttl)` triples into packets. Nanosecond
    /// send times against a 2 ns link delay and tiny TTLs make walks
    /// routinely straddle epoch boundaries, stressing both the cursor
    /// and the memo-validity check.
    fn random_packets(nodes: u32, raw: &[(u32, u64, u32)]) -> Vec<Packet> {
        raw.iter()
            .enumerate()
            .map(|(id, &(src, sent_at, ttl))| Packet {
                id: id as u64,
                src: n(src % nodes),
                prefix: p(),
                ttl: ttl % 12,
                sent_at: SimTime::from_nanos(sent_at),
            })
            .collect()
    }

    proptest! {
        // Nanosecond-scale cases cost microseconds each.
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Tentpole invariant (satellite b): the batched replay is
        /// fate-for-fate bit-identical to the naive per-packet oracle
        /// on random histories and random unsorted packet fleets.
        #[test]
        fn batched_equals_naive_on_random_histories(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..200, 0u32..12), 0..40),
            nodes in 2u32..8,
        ) {
            let fib = random_fib(nodes, &raw);
            let packets = random_packets(nodes, &pkts);
            let delay = SimDuration::from_nanos(2);
            let naive = walk_all(&fib, &packets, delay);
            let (batched, stats) = walk_all_batched_stats(&fib, &packets, delay);
            prop_assert_eq!(&batched, &naive);
            prop_assert_eq!(stats.packets, packets.len() as u64);
            prop_assert_eq!(stats.walks + stats.memo_hits, stats.packets);
        }

        /// Tentpole invariant: the fleet replay's tally is the tally of
        /// the per-packet oracle's fates and its counters are the
        /// per-packet entry point's, on random histories × random CBR
        /// fleets (one source per node at most, like `paper_sources`),
        /// on both table layouts. Nanosecond intervals, phases and link
        /// delays keep walks straddling epoch boundaries.
        #[test]
        fn fleet_equals_naive_tally_and_batch_stats(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            fleet in proptest::collection::vec(
                proptest::option::of((1u64..25, 0u64..25)), 8..9),
            nodes in 2u32..8,
            ttl in 0u32..12,
            delay in 0u64..4,
            start in 0u64..40,
            len in 0u64..200,
        ) {
            let fib = random_fib(nodes, &raw);
            let sources: Vec<CbrSource> = (0..nodes)
                .zip(&fleet)
                .filter_map(|(node, cbr)| {
                    cbr.map(|(interval, phase)| CbrSource::new(
                        n(node),
                        SimDuration::from_nanos(interval),
                        SimDuration::from_nanos(phase % interval),
                    ))
                })
                .collect();
            let (start, end) = (SimTime::from_nanos(start), SimTime::from_nanos(start + len));
            let delay = SimDuration::from_nanos(delay);
            let packets = generate_packets(&sources, p(), ttl, start, end);
            let oracle = FateTally::from_fates(&walk_all(&fib, &packets, delay));
            for cap in [crate::epoch::DENSE_CELL_CAP, 0] {
                let index = EpochIndex::build_with_cap(&fib, p(), cap);
                let (tally, stats) = replay_fleet(&index, &sources, ttl, start, end, delay);
                prop_assert_eq!(tally, oracle);
                prop_assert_eq!(tally.packets(), packets.len() as u64);
                prop_assert_eq!(stats, walk_indexed_batch(&index, &packets, delay).1);
            }
        }

        /// The sparse epoch-table layout replays identically to the
        /// dense one (the dense/sparse switch is purely a space trade).
        #[test]
        fn sparse_index_replays_like_dense(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            pkts in proptest::collection::vec(
                (0u32..8, 0u64..200, 0u32..12), 0..40),
            nodes in 2u32..8,
        ) {
            let fib = random_fib(nodes, &raw);
            let packets = random_packets(nodes, &pkts);
            let delay = SimDuration::from_nanos(2);
            let dense = EpochIndex::build(&fib, p());
            // A zero cell cap forces the sparse per-node layout.
            let sparse = EpochIndex::build_with_cap(&fib, p(), 0);
            prop_assert!(dense.is_dense());
            prop_assert!(!sparse.is_dense());
            let (df, ds) = walk_indexed_batch(&dense, &packets, delay);
            let (sf, ss) = walk_indexed_batch(&sparse, &packets, delay);
            prop_assert_eq!(&df, &sf);
            prop_assert_eq!(ds, ss);
            prop_assert_eq!(df, walk_all(&fib, &packets, delay));
        }
    }
}
