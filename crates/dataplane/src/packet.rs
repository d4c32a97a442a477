//! Data packets and their fates.

use bgpsim_netsim::time::SimTime;
use bgpsim_topology::NodeId;

use bgpsim_core::Prefix;

/// The default initial TTL, as in the study (§4.2): with a 2 ms link
/// delay a packet lives `128 × 2 ms = 256 ms` before TTL exhaustion.
pub const DEFAULT_TTL: u32 = 128;

/// A data packet injected at a source AS toward a destination prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Sequence number (unique per run).
    pub id: u64,
    /// The AS that sent the packet.
    pub src: NodeId,
    /// The destination prefix.
    pub prefix: Prefix,
    /// Initial TTL (decremented once per AS hop).
    pub ttl: u32,
    /// When the packet left the source.
    pub sent_at: SimTime,
}

/// What finally happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Reached the AS originating its destination prefix.
    Delivered {
        /// Arrival time.
        at: SimTime,
        /// Number of AS hops taken.
        hops: u32,
    },
    /// Dropped because the TTL reached zero — the study's indicator
    /// that the packet was caught in a forwarding loop.
    TtlExhausted {
        /// Drop time.
        at: SimTime,
        /// The AS at which the packet died.
        node: NodeId,
    },
    /// Dropped at an AS with no route to the destination.
    NoRoute {
        /// Drop time.
        at: SimTime,
        /// The AS that had no route.
        node: NodeId,
    },
}

impl PacketFate {
    /// The time the fate was sealed.
    pub fn at(&self) -> SimTime {
        match *self {
            PacketFate::Delivered { at, .. }
            | PacketFate::TtlExhausted { at, .. }
            | PacketFate::NoRoute { at, .. } => at,
        }
    }

    /// Returns `true` for delivered packets.
    pub fn is_delivered(&self) -> bool {
        matches!(self, PacketFate::Delivered { .. })
    }

    /// Returns `true` for TTL-exhaustion drops.
    pub fn is_ttl_exhausted(&self) -> bool {
        matches!(self, PacketFate::TtlExhausted { .. })
    }

    /// Returns `true` for no-route drops.
    pub fn is_no_route(&self) -> bool {
        matches!(self, PacketFate::NoRoute { .. })
    }
}

/// The fates of a fleet in aggregate: every input the paper's metrics
/// (§4.2) take from the data plane. The fleet replay
/// ([`replay_fleet`](crate::replay::replay_fleet)) fills one without
/// materializing a fate per packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FateTally {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
    /// Packets dropped by TTL exhaustion.
    pub ttl_exhausted: u64,
    /// The earliest TTL exhaustion, if any.
    pub first_exhaustion: Option<SimTime>,
    /// The latest TTL exhaustion, if any.
    pub last_exhaustion: Option<SimTime>,
}

impl FateTally {
    /// Tallies a slice of fates.
    pub fn from_fates(fates: &[PacketFate]) -> Self {
        let mut tally = FateTally::default();
        for fate in fates {
            tally.record(fate);
        }
        tally
    }

    /// Counts one packet's fate.
    pub fn record(&mut self, fate: &PacketFate) {
        self.record_run(fate, 1, fate.at());
    }

    /// Counts `count ≥ 1` packets that all ended like `first`, at
    /// instants from `first.at()` up to `last_at`.
    pub fn record_run(&mut self, first: &PacketFate, count: u64, last_at: SimTime) {
        match *first {
            PacketFate::Delivered { .. } => self.delivered += count,
            PacketFate::NoRoute { .. } => self.no_route += count,
            PacketFate::TtlExhausted { at, .. } => {
                self.ttl_exhausted += count;
                self.first_exhaustion = Some(self.first_exhaustion.map_or(at, |f| f.min(at)));
                self.last_exhaustion =
                    Some(self.last_exhaustion.map_or(last_at, |l| l.max(last_at)));
            }
        }
    }

    /// Total packets counted.
    pub fn packets(&self) -> u64 {
        self.delivered + self.no_route + self.ttl_exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_runs_and_tracks_exhaustion_span() {
        let x = |ms| PacketFate::TtlExhausted {
            at: SimTime::from_millis(ms),
            node: NodeId::new(2),
        };
        let mut tally = FateTally::from_fates(&[
            PacketFate::Delivered {
                at: SimTime::ZERO,
                hops: 1,
            },
            x(500),
        ]);
        tally.record_run(&x(100), 3, SimTime::from_millis(300));
        tally.record_run(
            &PacketFate::NoRoute {
                at: SimTime::ZERO,
                node: NodeId::new(1),
            },
            2,
            SimTime::from_secs(9),
        );
        assert_eq!(
            tally,
            FateTally {
                delivered: 1,
                no_route: 2,
                ttl_exhausted: 4,
                first_exhaustion: Some(SimTime::from_millis(100)),
                last_exhaustion: Some(SimTime::from_millis(500)),
            }
        );
        assert_eq!(tally.packets(), 7);
    }

    #[test]
    fn fate_predicates() {
        let t = SimTime::from_secs(1);
        let d = PacketFate::Delivered { at: t, hops: 3 };
        let x = PacketFate::TtlExhausted {
            at: t,
            node: NodeId::new(2),
        };
        let n = PacketFate::NoRoute {
            at: t,
            node: NodeId::new(2),
        };
        assert!(d.is_delivered() && !d.is_ttl_exhausted() && !d.is_no_route());
        assert!(x.is_ttl_exhausted() && !x.is_delivered());
        assert!(n.is_no_route() && !n.is_delivered());
        assert_eq!(d.at(), t);
        assert_eq!(x.at(), t);
        assert_eq!(n.at(), t);
    }

    #[test]
    fn default_ttl_gives_256ms_lifetime() {
        // Documented invariant from the paper's §4.2.
        let lifetime_ms = DEFAULT_TTL as u64 * 2;
        assert_eq!(lifetime_ms, 256);
    }
}
