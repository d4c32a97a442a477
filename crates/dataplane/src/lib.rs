//! # bgpsim-dataplane
//!
//! The packet-forwarding plane for the `bgpsim` BGP route-looping study
//! (ICDCS 2004 reproduction): CBR traffic sources, time-indexed
//! forwarding tables, a hop-by-hop packet replay engine with TTL
//! accounting, and a forwarding-loop scanner.
//!
//! ## Design
//!
//! The study runs the data plane at a rate low enough that congestion
//! never occurs (§4.2), so packets never influence routing. That makes
//! the coupling one-directional: the control-plane simulation records
//! each node's FIB changes as a piecewise-constant history
//! ([`fib::NetworkFib`]), and packets are *replayed* against it
//! ([`replay::walk_packet`]) — hop timings, in-flight table changes and
//! TTL exhaustion all behave exactly as in a fully interleaved
//! simulation, at a fraction of the cost. The `bgpsim-sim` crate
//! contains an event-driven forwarder used to cross-validate the
//! equivalence.
//!
//! Production measurement replays whole fleets through the
//! [`epoch::EpochIndex`]: the prefix's FIB history is cut into
//! *epochs* at its change instants, walks read an `O(1)`
//! `(node, epoch)` table behind monotone cursors instead of doing a
//! per-hop binary search, and one walk per `(source, epoch)` stands for
//! every packet of the source's arithmetic send schedule that finishes
//! inside the epoch ([`replay::replay_fleet`]). The resulting
//! [`packet::FateTally`] equals the tally of per-packet walks
//! (property-tested); the same index hands its change stream to the
//! loop census ([`loopscan::loop_census_deltas`]) so one pass serves
//! both.
//!
//! ## Example
//!
//! ```
//! use bgpsim_dataplane::prelude::*;
//! use bgpsim_core::{FibEntry, Prefix};
//! use bgpsim_netsim::time::{SimDuration, SimTime};
//! use bgpsim_topology::NodeId;
//!
//! // A two-node forwarding loop (paper Figure 1(b)).
//! let p = Prefix::new(0);
//! let mut fib = NetworkFib::new(2);
//! fib.record(NodeId::new(0), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(1))));
//! fib.record(NodeId::new(1), p, SimTime::ZERO, Some(FibEntry::Via(NodeId::new(0))));
//!
//! let pkt = Packet { id: 0, src: NodeId::new(0), prefix: p, ttl: DEFAULT_TTL, sent_at: SimTime::ZERO };
//! let fate = walk_packet(&fib, &pkt, SimDuration::from_millis(2));
//! assert!(fate.is_ttl_exhausted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod fib;
pub mod loopscan;
pub mod packet;
pub mod replay;
pub mod source;

pub use epoch::EpochIndex;
pub use fib::{FibDeltas, FibHistory, NetworkFib};
pub use loopscan::{find_loops, loop_census, loop_census_deltas, loop_census_full, LoopRecord};
pub use packet::{FateTally, Packet, PacketFate, DEFAULT_TTL};
pub use replay::{
    generate_packets, replay_fleet, walk_all, walk_all_batched, walk_all_batched_stats,
    walk_indexed_batch, walk_packet, walk_packet_traced, ReplayStats,
};
pub use source::{paper_sources, CbrSource};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::epoch::EpochIndex;
    pub use crate::fib::{FibDeltas, FibHistory, NetworkFib};
    pub use crate::loopscan::{
        find_loops, loop_census, loop_census_deltas, loop_census_full, LoopRecord,
    };
    pub use crate::packet::{FateTally, Packet, PacketFate, DEFAULT_TTL};
    pub use crate::replay::{
        generate_packets, replay_fleet, walk_all, walk_all_batched, walk_all_batched_stats,
        walk_indexed_batch, walk_packet, walk_packet_traced, ReplayStats,
    };
    pub use crate::source::{paper_sources, CbrSource};
}
