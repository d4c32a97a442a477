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
//! against a per-prefix [`EpochIndex`] source by source. A walk from
//! the source leaves its trajectory behind as the source's trail, and
//! every later packet whose flight ends before the first FIB change
//! that touches a node on it is counted with arithmetic on the
//! source's send times, however many epochs that spans. The packets
//! in flight at that change are walked from where it finds them, the
//! next one sent is walked from the source, and so replay costs a walk
//! per change that concerns a source. [`walk_indexed_batch`] drives
//! the same engine packet by packet and returns every fate; the fleet
//! path derives the counters it reports rather than enacting them.
//! Fates and tallies are bit-identical to per-packet [`walk_packet`]
//! (property-tested here and in CI); the naive walk is retained as the
//! oracle.

use std::ops::Range;

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
/// FIB lookup per hop. [`walk_indexed_batch`] must (and is
/// property-tested to) produce identical fates, and [`replay_fleet`]
/// their tally.
pub fn walk_all(fib: &NetworkFib, packets: &[Packet], link_delay: SimDuration) -> Vec<PacketFate> {
    packets
        .iter()
        .map(|p| walk_packet(fib, p, link_delay))
        .collect()
}

/// Counters from one replay ([`replay_fleet`] or
/// [`walk_indexed_batch`]). Both entry points run the same engine, so
/// they report the same values for the same fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Packets replayed.
    pub packets: u64,
    /// Packets accounted for by their `(source, launch epoch)` walk
    /// without a walk of their own: one memo check each for a packet
    /// that goes through the engine; for the ones the fleet path counts
    /// along a trail, derived from the send times and the boundaries
    /// between two trail breaks.
    pub memo_hits: u64,
    /// Walks (`packets - memo_hits`): the first packet of each
    /// `(source, launch epoch)` plus every packet whose reconstructed
    /// fate instant reaches the epoch boundary. The per-packet path
    /// executes each of them; the fleet path executes the ones the
    /// source's trail cannot answer in full and counts the rest.
    pub walks: u64,
    /// Epoch boundaries (distinct FIB change instants) in the indexes
    /// the batch ran against.
    pub epochs: u64,
    /// Walks answered from the source's trail, in full or up to the
    /// FIB change that broke it (a subset of `walks`).
    pub trail_hits: u64,
    /// Table lookups the executed walks made.
    pub hops: u64,
    /// Table lookups the walks were spared, by following the trail or
    /// by jumping whole turns of an in-epoch forwarding cycle: walked
    /// hop by hop they would have made `hops + hops_skipped`.
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
        self.trail_hits += other.trail_hits;
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

/// How the trajectory a [`Trail`] records ends.
#[derive(Debug, Clone, Copy)]
enum TrailEnd {
    /// The last node delivers the packet or has no route for it.
    Terminal(MemoEnd),
    /// The last node forwards to `nodes[tail]`: a forwarding cycle.
    Cycle { tail: u32 },
}

/// The trajectory of one source's packets through a frozen forwarding
/// graph: the nodes from the source to a terminal node, or to the last
/// node of the cycle the trajectory closes. It states the entries of
/// those nodes and nothing else, so it holds across every FIB change
/// that touches none of them, and for every TTL.
struct Trail {
    /// Whose trajectory this is; `None` while there is none.
    src: Option<NodeId>,
    nodes: Vec<NodeId>,
    end: TrailEnd,
    /// The boundaries before this index, from the end of the epoch the
    /// trail was recorded in, are known to touch none of `nodes`.
    cursor: usize,
}

impl Trail {
    /// Where a packet is after `hops` hops along the trail.
    fn node_at(&self, hops: u32) -> NodeId {
        let len = self.nodes.len() as u32;
        match self.end {
            TrailEnd::Cycle { tail } if hops >= len => {
                self.nodes[(tail + (hops - tail) % (len - tail)) as usize]
            }
            _ => self.nodes[hops as usize],
        }
    }

    /// The walk of a packet with initial TTL `ttl` that follows the
    /// trail for its whole flight.
    fn walk(&self, ttl: u32) -> MemoWalk {
        let last = self.nodes.len() as u32 - 1;
        match self.end {
            TrailEnd::Terminal(end) if ttl >= last => MemoWalk { steps: last, end },
            _ => MemoWalk {
                steps: ttl,
                end: MemoEnd::TtlExhausted(self.node_at(ttl)),
            },
        }
    }
}

/// What the engine keeps per node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeScratch {
    /// The engine's current mark iff the node is on the trail.
    mark: u32,
    /// Cycle detection: the stamp of the walk segment that last visited
    /// the node, and the walk's step count at that visit. A segment is
    /// the part of one walk inside one epoch and takes a fresh stamp,
    /// so a matching stamp reads "this walk was here before and the
    /// forwarding graph has not changed since".
    stamp: u32,
    steps: u32,
}

/// The replay engine behind every entry point: executes walks through
/// one [`EpochIndex`], remembers the last single-epoch walk and the
/// last source's trail, and counts what it did.
///
/// Callers feed it packets source-major and in send order. Then the
/// packets of one [`MemoKey`] are contiguous and a one-slot memo hits
/// exactly where a map over all keys would, and a one-slot trail is
/// always the one the next packet of its source can follow.
struct Replayer<'a> {
    index: &'a EpochIndex,
    link_delay: SimDuration,
    memo: Option<(MemoKey, MemoWalk)>,
    trail: Trail,
    scratch: Vec<NodeScratch>,
    mark: u32,
    stamp: u32,
    stats: ReplayStats,
}

impl<'a> Replayer<'a> {
    fn new(index: &'a EpochIndex, link_delay: SimDuration) -> Self {
        Replayer {
            index,
            link_delay,
            memo: None,
            trail: Trail {
                src: None,
                // A trail visits no node twice.
                nodes: Vec::with_capacity(index.node_count()),
                end: TrailEnd::Cycle { tail: 0 },
                cursor: 0,
            },
            scratch: vec![NodeScratch::default(); index.node_count()],
            mark: 0,
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
    /// instant still precedes the epoch boundary, executed otherwise —
    /// along the source's trail as far as that holds, hop by hop from
    /// there.
    ///
    /// Inside a frozen forwarding graph the trajectory is provably the
    /// memoized one, so the reconstruction is bit-identical to
    /// [`walk_packet`]. Strict: a lookup exactly at the boundary
    /// already sees the next epoch. An executed walk is memoized iff
    /// its last lookup still read the launch epoch, however it was
    /// executed.
    fn packet(&mut self, src: NodeId, ttl: u32, sent_at: SimTime, launch: usize) -> PacketFate {
        self.stats.packets += 1;
        let key = (src, launch, ttl);
        let boundary = self.index.boundaries().get(launch).copied();
        if let Some(walk) = self.memo(key) {
            let fate_at = sent_at + self.link_delay * u64::from(walk.steps);
            if boundary.is_none_or(|b| fate_at < b) {
                self.stats.memo_hits += 1;
                return walk.fate_at(fate_at);
            }
        }
        self.stats.walks += 1;
        let (walk, at) = match self.follow_trail(src, ttl, sent_at) {
            Some(walked) => walked,
            None => self.walk(src, ttl, sent_at, launch),
        };
        if boundary.is_none_or(|b| at < b) {
            self.memo = Some((key, walk));
        }
        walk.fate_at(at)
    }

    /// The walk of a packet of the trail's source, or `None` when the
    /// trail cannot tell (there is none for `src`, or it broke at or
    /// before `sent_at`).
    ///
    /// Every lookup that precedes the first boundary whose deltas touch
    /// a trail node reads the entries the trail was recorded from. A
    /// packet whose last lookup does is answered by arithmetic on the
    /// trail, however many boundaries its flight crosses. A packet in
    /// flight at that boundary `b` has followed the trail up to its
    /// first lookup at or after `b`, `⌈(b − sent_at) / link_delay⌉`
    /// hops in, and is walked from there.
    fn follow_trail(
        &mut self,
        src: NodeId,
        ttl: u32,
        sent_at: SimTime,
    ) -> Option<(MemoWalk, SimTime)> {
        if self.trail.src != Some(src) {
            return None;
        }
        let walk = self.trail.walk(ttl);
        let last_lookup = sent_at + self.link_delay * u64::from(walk.steps);
        let broken_at = self.trail_break(last_lookup);
        if broken_at.is_some_and(|b| b <= sent_at) {
            return None;
        }
        self.stats.trail_hits += 1;
        let Some(broken_at) = broken_at else {
            self.stats.hops_skipped += u64::from(walk.steps) + 1;
            return Some((walk, last_lookup));
        };
        // `sent_at < broken_at <= last_lookup`: the link delay is not
        // zero and the hop count is in `1..=walk.steps`.
        let hops = (broken_at - sent_at)
            .as_nanos()
            .div_ceil(self.link_delay.as_nanos()) as u32;
        self.stats.hops_skipped += u64::from(hops);
        Some(self.walk_from(
            self.trail.node_at(hops),
            ttl - hops,
            hops,
            sent_at + self.link_delay * u64::from(hops),
            self.trail.cursor + 1,
            false,
        ))
    }

    /// The first boundary at or before `until` whose deltas touch a
    /// trail node. The cursor moves over the boundaries that do not,
    /// and no further than `until`.
    fn trail_break(&mut self, until: SimTime) -> Option<SimTime> {
        let index = self.index;
        while let Some((at, changed)) = index.deltas().get(self.trail.cursor) {
            if *at > until {
                break;
            }
            if changed
                .iter()
                .any(|&(node, _)| self.scratch[node.index()].mark == self.mark)
            {
                return Some(*at);
            }
            self.trail.cursor += 1;
        }
        None
    }

    /// Counts the packets `sends` of `source` (the one before them just
    /// executed, in epoch `launch`) that repeat the walk of the source's
    /// trail, as [`packet`](Self::packet) would have counted them one by
    /// one. The repeaters are the packets whose last lookup precedes the
    /// first boundary that touches the trail, found by moving the
    /// trail's cursor. Returns the walk and the end of the run of
    /// repeaters (`sends.start` when there is none), or `None` when the
    /// source has no trail: its packets then go through `packet` and
    /// its memo one by one.
    ///
    /// One by one, the repeaters launched in an epoch, `n` of them of
    /// which `c` end their flight inside it, would make `n − c + 1`
    /// walks if `c ≥ 1` and `n` otherwise, each answered by the trail in
    /// full (sparing `steps + 1` lookups), and memo hits for the rest.
    /// Summed over the epochs: a repeater after the first is a memo hit
    /// iff no boundary falls in `(sent − interval, sent + flight]`, so
    /// the hits between two consecutive boundaries `b < b'` are the
    /// packets sent in `[b + interval, b' − flight)`, one division where
    /// that is not empty and none for the epochs that launch nothing.
    /// The first repeater is a hit iff it ends its flight inside its
    /// epoch and the memo holds that epoch.
    fn repeat(
        &mut self,
        source: &CbrSource,
        start: SimTime,
        ttl: u32,
        launch: usize,
        sends: Range<u64>,
    ) -> Option<(MemoWalk, u64)> {
        let src = source.node();
        if self.trail.src != Some(src) {
            return None;
        }
        let boundaries = self.index.boundaries();
        let walk = self.trail.walk(ttl);
        let (interval, flight) = (source.interval(), self.link_delay * u64::from(walk.steps));
        let first = sends.start;
        let sent_at = source.send_time(start, first);
        let last_lookup = source.send_time(start, sends.end - 1) + flight;
        let passed_from = self.trail.cursor;
        let end = match self.trail_break(last_lookup) {
            Some(b) if sent_at + flight < b => {
                source.sends_before(start, b - flight).min(sends.end)
            }
            Some(_) => first,
            None => sends.end,
        };
        if end > first {
            // The memo hits after the first repeater: between each two
            // boundaries passed on the way to the break, then behind the
            // last one.
            let passed = &boundaries[passed_from..self.trail.cursor];
            let mut hits = 0;
            let mut prev = sent_at;
            for &b in passed.iter().filter(|&&b| b > sent_at) {
                if prev + interval + flight < b {
                    hits += source.sends_before(start, b - flight)
                        - source.sends_before(start, prev + interval);
                }
                prev = b;
            }
            let after_prev = match prev == sent_at {
                true => first + 1,
                false => source.sends_before(start, prev + interval),
            };
            hits += end.saturating_sub(after_prev);
            // The first repeater's own launch epoch.
            let mut epoch = launch;
            while boundaries.get(epoch).is_some_and(|&b| b <= sent_at) {
                epoch += 1;
            }
            let crosses = boundaries
                .get(epoch)
                .is_some_and(|&b| b <= sent_at + flight);
            hits += u64::from(!crosses && self.memo((src, epoch, ttl)).is_some());
            let walks = end - first - hits;
            self.stats.packets += end - first;
            self.stats.memo_hits += hits;
            self.stats.walks += walks;
            self.stats.trail_hits += walks;
            self.stats.hops_skipped += walks * (u64::from(walk.steps) + 1);
        }
        Some((walk, end))
    }

    /// Makes the recorded nodes the trail of the first of them, in
    /// force from epoch `launch` on.
    fn seal_trail(&mut self, launch: usize, end: TrailEnd) {
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            self.scratch.iter_mut().for_each(|node| node.mark = 0);
            self.mark = 1;
        }
        for node in &self.trail.nodes {
            self.scratch[node.index()].mark = self.mark;
        }
        self.trail.src = self.trail.nodes.first().copied();
        self.trail.end = end;
        self.trail.cursor = launch;
    }

    /// A stamp no node holds.
    fn fresh_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.scratch.iter_mut().for_each(|node| node.stamp = 0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// One full walk from the source in its launch epoch. It replaces
    /// the trail: with its own trajectory if that reaches a terminal
    /// node or closes a cycle before the walk leaves the launch epoch,
    /// with none otherwise.
    fn walk(
        &mut self,
        src: NodeId,
        ttl: u32,
        sent_at: SimTime,
        launch: usize,
    ) -> (MemoWalk, SimTime) {
        self.trail.src = None;
        self.trail.nodes.clear();
        self.walk_from(src, ttl, 0, sent_at, launch, true)
    }

    /// Walks through the epoch table from a packet state: at `node`
    /// at `at` after `steps` hops, `ttl` left, `epoch` no later than
    /// the epoch of `at`. Returns the send-time-relative [`MemoWalk`]
    /// and the fate instant. `record` is set by [`walk`](Self::walk)
    /// only.
    ///
    /// A walk that comes back to a node it left `cycle` hops ago in the
    /// same epoch is on a forwarding cycle of that frozen graph. Every
    /// further hop repeats it for as long as the lookup still precedes
    /// the boundary and the TTL is not spent, so whole turns are taken
    /// at once: `min(ttl, lookups left) / cycle × cycle` hops. The state
    /// after the jump is the one the hop-by-hop walk reaches (same node,
    /// `at` advanced by the same u64 sum), and the fewer-than-`cycle`
    /// hops that remain in the epoch are walked.
    fn walk_from(
        &mut self,
        mut node: NodeId,
        mut ttl: u32,
        mut steps: u32,
        mut at: SimTime,
        mut epoch: usize,
        mut record: bool,
    ) -> (MemoWalk, SimTime) {
        let index = self.index;
        let boundaries = index.boundaries();
        let launch = epoch;
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
                record = false;
            }
            let seen = self.scratch[node.index()];
            if seen.stamp == stamp {
                if record {
                    record = false;
                    self.seal_trail(launch, TrailEnd::Cycle { tail: seen.steps });
                }
                let cycle = u64::from(steps - seen.steps);
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
            if record {
                self.trail.nodes.push(node);
            }
            let slot = &mut self.scratch[node.index()];
            (slot.stamp, slot.steps) = (stamp, steps);
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
        if record && !matches!(end, MemoEnd::TtlExhausted(_)) {
            self.seal_trail(launch, TrailEnd::Terminal(end));
        }
        (MemoWalk { steps, end }, at)
    }
}

/// Fleet replay: the aggregate fates of every packet `sources` send
/// toward `index.prefix()` in `[start, end)` with initial TTL `ttl`,
/// plus the [`ReplayStats`] — without materializing a packet or a fate.
///
/// A [`CbrSource`]'s send times are an arithmetic progression, and a
/// packet's trajectory reads only the entries of the nodes on it. So
/// once a walk from the source has sealed its trail, every later packet
/// whose last lookup `sent + steps × link_delay` precedes the first FIB
/// change that touches the trail repeats it, however many epochs that
/// spans: those packets are counted with one division, they share the
/// walk's fate and their instants run from the first to the last of
/// them. Only the packets in flight at that change, which resume from
/// where it finds them, and the ones sent after it are executed. While
/// a source has no trail (its last walk ran out of TTL or left its
/// launch epoch before it reached a terminal node or closed a cycle),
/// its packets go through the engine one by one, behind its one-slot
/// memo. The [`ReplayStats`] of the
/// counted packets are derived per launch epoch, as if they had been
/// replayed one by one.
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
            if k == total {
                break;
            }
            let Some((walk, run_end)) = engine.repeat(source, start, ttl, launch, k..total) else {
                continue;
            };
            if run_end > k {
                let flight = link_delay * u64::from(walk.steps);
                let first = walk.fate_at(source.send_time(start, k) + flight);
                let last_at = source.send_time(start, run_end - 1) + flight;
                tally.record_run(&first, run_end - k, last_at);
                k = run_end;
            }
        }
    }
    (tally, engine.stats)
}

/// Replays `packets` (all toward `index.prefix()`) against a prebuilt
/// [`EpochIndex`], returning fates in packet order plus the batch's
/// [`ReplayStats`]: like [`walk_all`] (identical fates, in order), but
/// through the epoch index and its per-epoch memo.
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
/// boundary. The other packets of the source follow the node list of
/// its last complete walk up to the first FIB change that touches a
/// node on it. So every fate is bit-identical to what [`walk_packet`]
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
    let boundaries = index.boundaries();
    // Allocated before `order` and its sort buffer: the other order left
    // the benchmark's long-epoch replay set-up a 10 % larger peak RSS.
    let mut fates: Vec<Option<PacketFate>> = vec![None; packets.len()];
    // Stable, and a no-op pass on `generate_packets` output.
    let mut order: Vec<usize> = (0..packets.len()).collect();
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
    let fates = fates
        .into_iter()
        .map(|f| f.expect("every packet was walked"))
        .collect();
    (fates, engine.stats)
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
        chain_and_bystanders(3)
    }

    /// 2 → 1 → 0 (delivery in two hops) and nodes `3..nodes` with no
    /// entry yet.
    fn chain_and_bystanders(nodes: usize) -> NetworkFib {
        let mut fib = NetworkFib::new(nodes);
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
            walk_indexed_batch(&fib.epoch_index(p()), &packets, d2()).0,
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
        let (fates, stats) = walk_indexed_batch(&fib.epoch_index(p()), &packets, d2());
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
        let (fates, stats) = walk_indexed_batch(&fib.epoch_index(p()), &packets, d2());
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
        let (fates, _) = walk_indexed_batch(&fib.epoch_index(p()), &packets, d2());
        assert_eq!(fates, walk_all(&fib, &packets, d2()));
        assert!(matches!(fates[0], PacketFate::NoRoute { node, .. } if node == n(1)));
        assert!(fates[1].is_delivered());
        assert!(matches!(fates[2], PacketFate::NoRoute { node, .. } if node == n(1)));
    }

    #[test]
    fn empty_batch_is_fine() {
        let fib = chain_fib();
        let index = fib.epoch_index(p());
        let (fates, stats) = walk_indexed_batch(&index, &[], d2());
        assert!(fates.is_empty());
        // Nothing walked; `epochs` counts the index's boundaries.
        let epochs = index.boundaries().len() as u64;
        assert_eq!(
            stats,
            ReplayStats {
                epochs,
                ..ReplayStats::default()
            }
        );
    }

    #[test]
    fn replay_stats_merge_sums() {
        let mut a = ReplayStats {
            packets: 10,
            memo_hits: 4,
            walks: 6,
            epochs: 3,
            trail_hits: 2,
            hops: 40,
            hops_skipped: 7,
        };
        let b = ReplayStats {
            packets: 2,
            memo_hits: 1,
            walks: 1,
            epochs: 5,
            trail_hits: 1,
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
                trail_hits: 3,
                hops: 42,
                hops_skipped: 8,
            }
        );
        assert_eq!(ReplayStats::default().hit_rate(), 0.0);
    }

    /// `packets` (source-major, in send order) through a fresh engine:
    /// their fates and the engine's counters, after checking the fates
    /// against the hop-by-hop oracle, the lookup accounting against the
    /// oracle's trajectory lengths, and `packets`/`memo_hits`/`walks`
    /// against the per-epoch definition applied to those trajectories:
    /// a packet is a memo hit iff the last walk of its
    /// `(source, launch epoch, TTL)` stayed inside the epoch and its
    /// own reconstructed fate instant does too. However a walk is
    /// executed, that classification must not move.
    fn replay_checked(
        fib: &NetworkFib,
        packets: &[Packet],
        delay: SimDuration,
    ) -> (Vec<PacketFate>, ReplayStats) {
        replay_checked_on(&EpochIndex::build(fib, p()), fib, packets, delay)
    }

    /// [`replay_checked`] through a given index over `fib`.
    fn replay_checked_on(
        index: &EpochIndex,
        fib: &NetworkFib,
        packets: &[Packet],
        delay: SimDuration,
    ) -> (Vec<PacketFate>, ReplayStats) {
        let (fates, stats) = walk_indexed_batch(index, packets, delay);
        let mut lookups = 0;
        let mut memo = None;
        let (mut memo_hits, mut walks) = (0, 0);
        for (packet, fate) in packets.iter().zip(&fates) {
            let mut trace = Vec::new();
            let oracle = walk_packet_traced(fib, packet, delay, Some(&mut trace));
            assert_eq!(*fate, oracle, "{packet:?}");
            let launch = index.epoch_of(packet.sent_at) as usize;
            let in_launch = |at: SimTime| index.boundaries().get(launch).is_none_or(|&b| at < b);
            let key = (packet.src, launch, packet.ttl);
            match memo {
                Some((k, steps)) if k == key && in_launch(packet.sent_at + delay * steps) => {
                    memo_hits += 1;
                }
                _ => {
                    walks += 1;
                    lookups += trace.len() as u64;
                    let last = trace.last().expect("a walk looks up its source");
                    if in_launch(last.at) {
                        memo = Some((key, trace.len() as u64 - 1));
                    }
                }
            }
        }
        assert_eq!(stats.hops + stats.hops_skipped, lookups);
        assert_eq!(
            (stats.packets, stats.memo_hits, stats.walks),
            (packets.len() as u64, memo_hits, walks)
        );
        assert!(stats.trail_hits <= stats.walks);
        (fates, stats)
    }

    /// One packet from `src` at `at` with TTL `ttl`, through
    /// [`replay_checked`].
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
        let (fates, stats) = replay_checked(fib, &[packet], delay);
        (fates[0], stats)
    }

    /// 3 → 2 → 1 ⇄ 0: a two-hop tail into a two-node cycle, and a
    /// bystander 4 no packet visits.
    fn tail_and_cycle_fib() -> NetworkFib {
        let mut fib = NetworkFib::new(5);
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
        // Nodes that claim a visit under the stamp the wrap lands on.
        engine.scratch.iter_mut().for_each(|node| node.stamp = 1);
        engine.stamp = u32::MAX;
        let at = SimTime::from_secs(1);
        let fate = engine.packet(n(3), DEFAULT_TTL, at, 1);
        assert_eq!(fate, walk_packet(&fib, &pkt(3, at), d2()));
        assert_eq!((engine.stats.hops, engine.stats.hops_skipped), (5, 124));
        assert!(engine.stamp < 8, "stamps restart after the wrap");
    }

    /// Packets of one source with `ttl` each, sent at `sent_ms`.
    fn burst(src: u32, ttl: u32, sent_ms: &[u64]) -> Vec<Packet> {
        sent_ms
            .iter()
            .map(|&ms| Packet {
                ttl,
                ..pkt(src, SimTime::from_millis(ms))
            })
            .collect()
    }

    #[test]
    fn trail_answers_a_flight_across_a_change_elsewhere() {
        // The bystander changes at 1100 ms. The packet sent at 1000 ms
        // is walked: tail, one turn, a skip to the boundary, and the
        // same again behind it. The packet sent at 1050 ms is in the
        // loop at 1100 ms as well, and makes no lookup at all.
        let mut fib = tail_and_cycle_fib();
        fib.record(n(4), p(), SimTime::from_millis(1100), Some(FibEntry::Local));
        let (fates, stats) = replay_checked(&fib, &burst(3, DEFAULT_TTL, &[1000, 1050]), d2());
        assert_eq!(
            fates[1],
            PacketFate::TtlExhausted {
                at: SimTime::from_millis(1306),
                node: n(1)
            }
        );
        assert_eq!((stats.walks, stats.memo_hits, stats.trail_hits), (2, 0, 1));
        let (_, first) = walk_one(&fib, 3, DEFAULT_TTL, SimTime::from_secs(1), d2());
        assert_eq!(stats.hops, first.hops, "the second walk is all trail");
        assert_eq!(stats.hops_skipped, first.hops_skipped + 129);
    }

    #[test]
    fn trail_broken_mid_flight_resumes_where_the_change_finds_the_packet() {
        // Node 0 starts delivering at 1100 ms. The packet sent at
        // 1050 ms has made 25 hops by then, its 26th lookup is at
        // 1100 ms at node 0: one lookup, 25 spared. The packet sent at
        // 1097 ms is at node 1 at 1101 ms. The packet sent at 1100 ms
        // starts behind the change and is walked from the source.
        let mut fib = tail_and_cycle_fib();
        let broken = SimTime::from_millis(1100);
        fib.record(n(0), p(), broken, Some(FibEntry::Local));
        let packets = burst(3, DEFAULT_TTL, &[1000, 1050, 1097, 1100, 1200]);
        let (fates, stats) = replay_checked(&fib, &packets, d2());
        assert_eq!(
            fates[1],
            PacketFate::Delivered {
                at: broken,
                hops: 25
            }
        );
        assert_eq!(
            fates[2],
            PacketFate::Delivered {
                at: SimTime::from_millis(1103),
                hops: 3
            }
        );
        assert_eq!((stats.walks, stats.memo_hits, stats.trail_hits), (4, 1, 2));
        let (_, first) = walk_one(&fib, 3, DEFAULT_TTL, SimTime::from_secs(1), d2());
        // 1 lookup after 25 hops, 2 after 2, 4 from the source.
        assert_eq!(stats.hops, first.hops + 1 + 2 + 4);
        assert_eq!(stats.hops_skipped, first.hops_skipped + 25 + 2);
    }

    #[test]
    fn trail_is_strict_at_the_last_lookup_instant() {
        // 2 → 1 → 0 delivers in 4 ms until node 0 loses its route at
        // 1004 ms; the bystander's change at 950 ms only ends the first
        // packet's epoch. Sent at 999 ms, the last lookup is at
        // 1003 ms: all trail. Sent at 1000 ms, it is at 1004 ms and
        // already reads the new entry: two hops of trail, one lookup.
        let mut fib = NetworkFib::new(4);
        fib.record(n(0), p(), SimTime::ZERO, Some(FibEntry::Local));
        fib.record(n(1), p(), SimTime::ZERO, Some(FibEntry::Via(n(0))));
        fib.record(n(2), p(), SimTime::ZERO, Some(FibEntry::Via(n(1))));
        fib.record(n(3), p(), SimTime::from_millis(950), None);
        fib.record(n(0), p(), SimTime::from_millis(1004), None);
        let (fates, stats) = replay_checked(&fib, &burst(2, DEFAULT_TTL, &[900, 999, 1000]), d2());
        assert_eq!(
            fates[1],
            PacketFate::Delivered {
                at: SimTime::from_millis(1003),
                hops: 2
            }
        );
        assert_eq!(
            fates[2],
            PacketFate::NoRoute {
                at: SimTime::from_millis(1004),
                node: n(0)
            }
        );
        assert_eq!((stats.walks, stats.trail_hits), (3, 2));
        assert_eq!((stats.hops, stats.hops_skipped), (3 + 1, 3 + 2));
    }

    #[test]
    fn trail_answers_every_ttl() {
        let fib = tail_and_cycle_fib();
        let at = SimTime::from_secs(1);
        let exhausted = |node, hops: u64| PacketFate::TtlExhausted {
            at: at + d2() * hops,
            node: n(node),
        };
        // From 3 the tail is two hops: TTL 1 dies on it, TTL 2 at the
        // head of the cycle, TTL 5 three hops into it.
        let mut packets = burst(3, DEFAULT_TTL, &[1000]);
        for ttl in [1, 2, 5] {
            packets.extend(burst(3, ttl, &[1000]));
        }
        let (fates, stats) = replay_checked(&fib, &packets, d2());
        assert_eq!(
            fates[1..],
            [exhausted(2, 1), exhausted(1, 2), exhausted(0, 5)]
        );
        assert_eq!((stats.walks, stats.trail_hits), (4, 3));

        // Source 1 is on the cycle: no tail, the trail is one turn.
        let mut packets = burst(1, DEFAULT_TTL, &[1000]);
        for ttl in [0, 1, 6, 7] {
            packets.extend(burst(1, ttl, &[1000]));
        }
        let (fates, stats) = replay_checked(&fib, &packets, d2());
        assert_eq!(
            fates[1..],
            [
                exhausted(1, 0),
                exhausted(0, 1),
                exhausted(1, 6),
                exhausted(0, 7)
            ]
        );
        assert_eq!((stats.walks, stats.trail_hits), (5, 4));

        // A delivering trail 2 → 1 → 0: TTL 1 dies one hop short, TTL 2
        // is just enough.
        let fib = chain_fib();
        let mut packets = burst(2, DEFAULT_TTL, &[1000]);
        packets.extend(burst(2, 1, &[1000]));
        packets.extend(burst(2, 2, &[1000]));
        let (fates, stats) = replay_checked(&fib, &packets, d2());
        assert_eq!(fates[1], exhausted(1, 1));
        assert_eq!(fates[2], fates[0]);
        assert_eq!((stats.walks, stats.trail_hits), (3, 2));
    }

    #[test]
    fn trail_leaves_the_per_epoch_classification_alone() {
        // The benchmark's golden `packets`/`memo_hits`/`walks` are the
        // per-epoch definition's, which [`replay_checked`] recomputes
        // from the oracle's trajectories. Here the bystander changes
        // every 60 ms and node 0 once, under two sources that send
        // every 10 ms into the 256 ms loop. Up to 1505 ms no walk
        // stays inside its epoch, so all 51 per source are executed;
        // behind it delivery takes 6 ms at most and only the first
        // packet of each of the 8 epochs is. All but the first walk
        // of a source on either side of 1505 ms are trail answers,
        // the ones in flight at 1505 ms resumed.
        let mut fib = tail_and_cycle_fib();
        for k in 0..16 {
            let entry = (k % 2 == 0).then_some(FibEntry::Local);
            fib.record(n(4), p(), SimTime::from_millis(1000 + 60 * k), entry);
        }
        fib.record(n(0), p(), SimTime::from_millis(1505), Some(FibEntry::Local));
        let sends: Vec<u64> = (0..100).map(|k| 1000 + 10 * k).collect();
        let mut packets = burst(3, DEFAULT_TTL, &sends);
        packets.extend(burst(1, DEFAULT_TTL, &sends));
        let (_, stats) = replay_checked(&fib, &packets, d2());
        assert_eq!(
            (stats.packets, stats.memo_hits, stats.walks),
            (200, 82, 118)
        );
        assert_eq!(stats.trail_hits, 118 - 4);
    }

    #[test]
    fn mark_wrap_forgets_every_older_trail() {
        // The bystander's slot claims the mark the wrap lands on. Were
        // it believed, its change at 1100 ms would break the trail and
        // the second packet would be walked from 25 hops in.
        let mut fib = tail_and_cycle_fib();
        fib.record(n(4), p(), SimTime::from_millis(1100), Some(FibEntry::Local));
        let index = EpochIndex::build(&fib, p());
        let mut engine = Replayer::new(&index, d2());
        engine.scratch.iter_mut().for_each(|node| node.mark = 1);
        engine.mark = u32::MAX;
        engine.packet(n(3), DEFAULT_TTL, SimTime::from_secs(1), 1);
        assert_eq!(engine.mark, 1, "marks restart after the wrap");
        let walked = engine.stats.hops;
        let at = SimTime::from_millis(1050);
        let fate = engine.packet(n(3), DEFAULT_TTL, at, 1);
        assert_eq!(fate, walk_packet(&fib, &pkt(3, at), d2()));
        assert_eq!((engine.stats.trail_hits, engine.stats.hops), (1, walked));
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

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    /// A source at `node` sending every `every_ms` from `phase_ms` on.
    fn cbr(node: u32, every_ms: u64, phase_ms: u64) -> CbrSource {
        CbrSource::new(
            n(node),
            SimDuration::from_millis(every_ms),
            SimDuration::from_millis(phase_ms),
        )
    }

    /// `sources` over `[start, end)` through the fleet face, checked
    /// against the oracle and the per-packet face: the tally is the
    /// tally of [`walk_all`]'s fates, the stats are
    /// [`walk_indexed_batch`]'s (whose per-epoch classification
    /// [`replay_checked_on`] checks in turn).
    fn fleet_checked(
        fib: &NetworkFib,
        sources: &[CbrSource],
        ttl: u32,
        (start, end): (SimTime, SimTime),
        delay: SimDuration,
    ) -> (FateTally, ReplayStats) {
        let index = EpochIndex::build(fib, p());
        let (tally, stats) = replay_fleet(&index, sources, ttl, start, end, delay);
        let packets = generate_packets(sources, p(), ttl, start, end);
        assert_eq!(
            tally,
            FateTally::from_fates(&walk_all(fib, &packets, delay))
        );
        assert_eq!(stats, replay_checked_on(&index, fib, &packets, delay).1);
        (tally, stats)
    }

    /// `node` switching between delivering and no route `count` times,
    /// every `every_ms` from `from_ms` on.
    fn toggle(fib: &mut NetworkFib, node: u32, from_ms: u64, every_ms: u64, count: u64) {
        for k in 0..count {
            let entry = (k % 2 == 0).then_some(FibEntry::Local);
            fib.record(n(node), p(), ms(from_ms + every_ms * k), entry);
        }
    }

    #[test]
    fn fleet_counts_a_trail_across_sixty_changes_elsewhere() {
        // 2 → 1 → 0 delivers in 4 ms while the bystander 3 changes every
        // 10 ms, 60 times. Sent every 3 ms, one or two packets are in
        // flight at each of those boundaries. None of them touches the
        // trail, so the first walk is the only one that looks anything
        // up, and every later walk is a whole trail answer.
        let mut fib = chain_and_bystanders(4);
        toggle(&mut fib, 3, 1000, 10, 60);
        let source = [cbr(2, 3, 1)];
        let (tally, stats) = fleet_checked(&fib, &source, DEFAULT_TTL, (ms(990), ms(1700)), d2());
        assert_eq!(tally.delivered, 237);
        assert_eq!(stats.hops, 3);
        assert_eq!(stats.trail_hits, stats.walks - 1);
        assert!(
            stats.walks > 2 * 60,
            "the crossers and the first of each epoch"
        );
    }

    #[test]
    fn fleet_counts_epochs_that_launch_nothing() {
        // The bystander 5 changes every 7 ms, 40 times, and the sources
        // send every 20 ms: most epochs launch no packet of either.
        // Source 2 delivers in 4 ms, source 3 spins in the 3 ⇄ 4 loop
        // for 256 ms and crosses every boundary up to the last.
        let mut fib = chain_and_bystanders(6);
        fib.record(n(3), p(), SimTime::ZERO, Some(FibEntry::Via(n(4))));
        fib.record(n(4), p(), SimTime::ZERO, Some(FibEntry::Via(n(3))));
        toggle(&mut fib, 5, 1000, 7, 40);
        let sources = [cbr(2, 20, 5), cbr(3, 20, 5)];
        let (tally, stats) = fleet_checked(&fib, &sources, DEFAULT_TTL, (ms(1000), ms(1600)), d2());
        assert_eq!((tally.delivered, tally.ttl_exhausted), (30, 30));
        // The routes at zero, then 40 changes in the 273 ms over which
        // each source sends 14 packets.
        assert_eq!(stats.epochs, 41);
    }

    #[test]
    fn fleet_resumes_where_a_break_at_the_next_boundary_finds_the_packets() {
        // Node 1 turns to the detour 1 → 3 → 0 at 1 s, the first
        // boundary after the first walk. Of the packets sent every ms
        // from 980 ms, the ones up to 995 ms are home before it (memo
        // hits), the ones of 996–999 ms are in flight across it and
        // resume there, and the one of 1000 ms is walked from the
        // source and leaves the detour's trail for the rest.
        let mut fib = chain_and_bystanders(4);
        fib.record(n(3), p(), SimTime::ZERO, Some(FibEntry::Via(n(0))));
        fib.record(n(1), p(), ms(1000), Some(FibEntry::Via(n(3))));
        let source = [cbr(2, 1, 0)];
        let (tally, stats) = fleet_checked(&fib, &source, DEFAULT_TTL, (ms(980), ms(1010)), d2());
        assert_eq!(tally.delivered, 30);
        assert_eq!(
            (stats.walks, stats.memo_hits, stats.trail_hits),
            (1 + 4 + 1, 15 + 9, 4)
        );
    }

    #[test]
    fn fleet_is_strict_at_a_break_on_the_last_lookup_instant() {
        // 2 → 1 → 0 delivers in 4 ms until node 0 loses its route at
        // 1004 ms; the bystander's change at 950 ms only ends an epoch.
        // Sent every ms from 940 ms, the packet of 999 ms makes its last
        // lookup at 1003 ms and repeats the trail; the one of 1000 ms
        // makes it at 1004 ms, reads the new entry and is walked.
        let mut fib = chain_and_bystanders(4);
        fib.record(n(3), p(), ms(950), None);
        fib.record(n(0), p(), ms(1004), None);
        let source = [cbr(2, 1, 0)];
        let (tally, stats) = fleet_checked(&fib, &source, DEFAULT_TTL, (ms(940), ms(1010)), d2());
        assert_eq!((tally.delivered, tally.no_route), (60, 10));
        // Walked: the first packet, the crossers of 950 ms, the first
        // packet behind it, the four in flight at 1004 ms and the first
        // one behind that.
        assert_eq!((stats.walks, stats.memo_hits), (1 + 4 + 1 + 4 + 1, 59));
        assert_eq!(stats.trail_hits, 4 + 1 + 4);
    }

    #[test]
    fn fleet_with_zero_link_delay_counts_every_fate_at_its_send_time() {
        // No time passes in flight, so no packet crosses a boundary. The
        // bystander's changes only end epochs; node 0's switch to
        // delivering at 1055 ms breaks the trail into the 1 ⇄ 0 loop for
        // the packets sent from then on.
        let mut fib = tail_and_cycle_fib();
        toggle(&mut fib, 4, 1000, 10, 10);
        fib.record(n(0), p(), ms(1055), Some(FibEntry::Local));
        let source = [cbr(3, 3, 0)];
        for ttl in [9, DEFAULT_TTL] {
            let window = (ms(990), ms(1100));
            let (tally, _) = fleet_checked(&fib, &source, ttl, window, SimDuration::ZERO);
            assert_eq!((tally.ttl_exhausted, tally.delivered), (22, 15));
            assert_eq!(tally.last_exhaustion, Some(ms(1053)));
        }
    }

    #[test]
    fn fleet_with_ttl_zero_replays_walks_that_seal_no_trail_one_by_one() {
        // With no TTL a packet of source 2 dies at its source: its walk
        // neither closes a cycle nor reaches a terminal node, so it
        // seals no trail, and the packets after it go through the
        // engine one at a time, memo hits up to the end of the epoch.
        // Source 0 delivers to itself and leaves a one-node trail that
        // no change touches.
        let mut fib = chain_and_bystanders(4);
        toggle(&mut fib, 3, 1000, 10, 5);
        let sources = [cbr(0, 3, 1), cbr(2, 3, 2)];
        let window = (ms(990), ms(1100));
        let (tally, stats) = fleet_checked(&fib, &sources, 0, window, d2());
        let sends = |source: &CbrSource| source.sends_before(window.0, window.1);
        assert_eq!(
            (tally.delivered, tally.ttl_exhausted),
            (sends(&sources[0]), sends(&sources[1]))
        );
        // One walk per source and epoch; source 0's are trail answers
        // but for the first.
        assert_eq!(stats.walks, 2 * 6);
        assert_eq!((stats.trail_hits, stats.hops), (5, 1 + 6));
    }

    #[test]
    fn fleet_skips_a_source_with_no_sends() {
        // Source 1's phase lies past the end of the window: it sends
        // nothing, before and after source 2's five packets.
        let silent = cbr(1, 10, 7);
        let sources = [silent, cbr(2, 1, 0), silent];
        let (tally, stats) =
            fleet_checked(&chain_fib(), &sources, DEFAULT_TTL, (ms(0), ms(5)), d2());
        assert_eq!((tally.delivered, stats.packets, stats.walks), (5, 5, 1));
    }

    /// Builds a random FIB history from `(node, dt, hop)` triples using
    /// per-node clocks (each history time-ordered, global interleaving
    /// arbitrary) — the same scheme as the loop-census proptests.
    fn random_fib(nodes: u32, raw: &[(u32, u32, Option<u32>)]) -> NetworkFib {
        stretched_fib(nodes, raw, 1)
    }

    /// [`random_fib`] with every step of every clock `stretch` times
    /// as long: the same changes, further apart.
    fn stretched_fib(nodes: u32, raw: &[(u32, u32, Option<u32>)], stretch: u64) -> NetworkFib {
        quiet_fib(nodes, 0, &[], raw, stretch)
    }

    /// [`stretched_fib`] in which the first `quiet` nodes take their
    /// entry from `initial` at time zero and keep it: every change goes
    /// to one of the others. A trail that stays among the quiet nodes
    /// outlives every boundary up to the first change that reaches it.
    fn quiet_fib(
        nodes: u32,
        quiet: u32,
        initial: &[u32],
        raw: &[(u32, u32, Option<u32>)],
        stretch: u64,
    ) -> NetworkFib {
        let entry = |node: u32, hop: Option<u32>| match hop.map(|h| h % nodes) {
            Some(h) if h != node => Some(FibEntry::Via(n(h))),
            Some(_) => Some(FibEntry::Local),
            None => None,
        };
        let mut fib = NetworkFib::new(nodes as usize);
        for (node, &hop) in (0..quiet).zip(initial) {
            fib.record(n(node), p(), SimTime::ZERO, entry(node, Some(hop)));
        }
        let mut clock = vec![0u64; nodes as usize];
        for &(node, dt, hop) in raw {
            let node = quiet + node % (nodes - quiet);
            let t = clock[node as usize] + u64::from(dt) * stretch;
            clock[node as usize] = t;
            fib.record(n(node), p(), SimTime::from_nanos(t), entry(node, hop));
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
            let (batched, stats) = walk_indexed_batch(&fib.epoch_index(p()), &packets, delay);
            prop_assert_eq!(&batched, &naive);
            prop_assert_eq!(stats.packets, packets.len() as u64);
            prop_assert_eq!(stats.walks + stats.memo_hits, stats.packets);
        }

        /// Tentpole invariant: per packet, the engine's fates are the
        /// naive oracle's and its counters the per-epoch definition's
        /// ([`replay_checked`]); the fleet replay's tally is the tally
        /// of those fates and its counters are the per-packet entry
        /// point's. On random histories × random CBR fleets (one source
        /// per node at most, like `paper_sources`), one TTL for the
        /// fleet and mixed TTLs per packet, on both table layouts.
        /// Nanosecond intervals, phases and link delays keep walks
        /// straddling epoch boundaries; `stretch` moves the changes
        /// apart, so that trails outlive some of them; `quiet` nodes
        /// never change after time zero, so that a trail among them
        /// outlives many.
        #[test]
        fn fleet_equals_naive_tally_and_batch_stats(
            raw in proptest::collection::vec(
                (0u32..8, 0u32..20, proptest::option::of(0u32..8)), 0..60),
            fleet in proptest::collection::vec(
                proptest::option::of((1u64..25, 0u64..25)), 8..9),
            nodes in 2u32..8,
            quiet in proptest::option::of(1u32..8),
            initial in proptest::collection::vec(0u32..8, 8..9),
            ttl in 0u32..12,
            ttls in proptest::collection::vec(0u32..12, 1..4),
            delay in 0u64..4,
            stretch in 1u64..12,
            start in 0u64..40,
            len in 0u64..200,
        ) {
            let quiet = quiet.map_or(0, |quiet| quiet.min(nodes - 1));
            let fib = quiet_fib(nodes, quiet, &initial, &raw, stretch);
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
            let start = SimTime::from_nanos(start * stretch);
            let end = start + SimDuration::from_nanos(len);
            let delay = SimDuration::from_nanos(delay);
            let packets = generate_packets(&sources, p(), ttl, start, end);
            let mixed: Vec<Packet> = packets
                .iter()
                .zip(ttls.iter().cycle())
                .map(|(packet, &ttl)| Packet { ttl, ..*packet })
                .collect();
            for cap in [crate::epoch::DENSE_CELL_CAP, 0] {
                let index = EpochIndex::build_with_cap(&fib, p(), cap);
                let (fates, stats) = replay_checked_on(&index, &fib, &packets, delay);
                let (tally, fleet_stats) = replay_fleet(&index, &sources, ttl, start, end, delay);
                prop_assert_eq!(tally, FateTally::from_fates(&fates));
                prop_assert_eq!(tally.packets(), packets.len() as u64);
                prop_assert_eq!(fleet_stats, stats);
                replay_checked_on(&index, &fib, &mixed, delay);
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
