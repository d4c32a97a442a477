//! # bgpsim-core
//!
//! A BGP path-vector protocol engine, built to reproduce *"A Study of
//! BGP Path Vector Route Looping Behavior"* (Pei, Zhao, Massey, Zhang —
//! ICDCS 2004).
//!
//! The crate models one BGP speaker per AS with:
//!
//! * a per-neighbor Adj-RIB-In holding the latest advertisement from
//!   each peer ([`rib::RibIn`] is its stand-alone table form);
//! * the decision process ([`decision`]) with **path-based poison
//!   reverse** — any path containing the local node is discarded, which
//!   detects arbitrarily long loops involving oneself;
//! * per-`(peer, prefix)` **MRAI timers** with SSFNet-style jitter —
//!   the paper's dominant factor in transient loop duration;
//! * explicit withdrawals, exempt from MRAI per RFC 1771;
//! * the four convergence enhancements of the paper's §5 as
//!   configuration flags ([`config::Enhancements`]): SSLD, WRATE,
//!   Assertion and Ghost Flushing.
//!
//! The engine is deliberately **host-agnostic**: [`router::Router`]
//! consumes inputs (messages, timer expiries, session events) at given
//! simulation times and returns a [`output::RouterOutput`] describing
//! messages to send, timers to schedule, and FIB changes. The
//! `bgpsim-sim` crate wires routers into the `bgpsim-netsim` event loop.
//!
//! ## Example
//!
//! ```
//! use bgpsim_core::prelude::*;
//! use bgpsim_netsim::rng::SimRng;
//! use bgpsim_netsim::time::SimTime;
//! use bgpsim_topology::NodeId;
//!
//! let mut origin = Router::new(NodeId::new(0), [NodeId::new(1)], BgpConfig::default());
//! let mut rng = SimRng::new(42);
//! let out = origin.originate(Prefix::new(0), SimTime::ZERO, &mut rng);
//! assert_eq!(out.sends.len(), 1); // advertise to the single peer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::redundant_clone)]

pub mod aspath;
pub mod config;
pub mod decision;
pub mod message;
pub mod output;
pub mod policy;
pub mod prefix;
pub mod rib;
pub mod router;

pub use aspath::AsPath;
pub use config::{BgpConfig, Enhancements, Jitter};
pub use message::BgpMessage;
pub use output::{FibEntry, LocRoute, MraiTimerRequest, RouterOutput};
pub use prefix::Prefix;
pub use router::{Router, RouterState, RouterStats};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::aspath::AsPath;
    pub use crate::config::{BgpConfig, Enhancements, Jitter};
    pub use crate::decision::{RoutePolicy, ShortestPath};
    pub use crate::message::BgpMessage;
    pub use crate::output::{FibEntry, LocRoute, MraiTimerRequest, RouterOutput};
    pub use crate::policy::GaoRexford;
    pub use crate::prefix::Prefix;
    pub use crate::router::{Router, RouterState, RouterStats};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use bgpsim_netsim::rng::SimRng;
    use bgpsim_netsim::time::SimTime;
    use bgpsim_topology::NodeId;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    proptest! {
        /// Whatever sequence of announcements/withdrawals a router
        /// processes, its selected route is always simple (no repeated
        /// AS) and always starts with its own id.
        #[test]
        fn selected_route_is_well_formed(
            msgs in proptest::collection::vec(
                (1u32..6, proptest::collection::vec(6u32..12, 0..4), any::<bool>()),
                1..40,
            )
        ) {
            let peers: Vec<NodeId> = (1..6).map(n).collect();
            let mut r = Router::new(n(0), peers, BgpConfig::default());
            let mut rng = SimRng::new(5);
            let prefix = Prefix::new(0);
            let mut t = SimTime::ZERO;
            for (peer, tail, withdraw) in msgs {
                t += bgpsim_netsim::time::SimDuration::from_millis(10);
                let msg = if withdraw {
                    BgpMessage::withdraw(prefix)
                } else {
                    // Build a simple path: peer, then distinct tail ids,
                    // ending at origin 100.
                    let mut ids = vec![peer];
                    for x in tail {
                        if !ids.contains(&x) {
                            ids.push(x);
                        }
                    }
                    ids.push(100);
                    BgpMessage::announce(prefix, AsPath::from_ids(ids))
                };
                r.handle_message(n(peer), &msg, t, &mut rng);
                if let Some(best) = r.best(prefix) {
                    prop_assert!(best.path.is_simple());
                    prop_assert_eq!(best.path.head(), n(0));
                    prop_assert!(!matches!(best.fib, FibEntry::Local));
                }
            }
        }

        /// The router never announces a path containing the receiving
        /// peer when SSLD is on, and never sends two identical
        /// consecutive advertisements to the same peer.
        #[test]
        fn ssld_and_no_duplicate_adverts(
            msgs in proptest::collection::vec(
                (1u32..5, proptest::collection::vec(5u32..10, 0..3), any::<bool>()),
                1..40,
            ),
            ssld in any::<bool>(),
        ) {
            let peers: Vec<NodeId> = (1..5).map(n).collect();
            let enh = if ssld { Enhancements::ssld() } else { Enhancements::standard() };
            let cfg = BgpConfig::default()
                .with_mrai(bgpsim_netsim::time::SimDuration::ZERO)
                .with_enhancements(enh);
            let mut r = Router::new(n(0), peers, cfg);
            let mut rng = SimRng::new(9);
            let prefix = Prefix::new(0);
            let mut t = SimTime::ZERO;
            let mut last_sent: std::collections::HashMap<NodeId, BgpMessage> =
                std::collections::HashMap::new();
            for (peer, tail, withdraw) in msgs {
                t += bgpsim_netsim::time::SimDuration::from_millis(10);
                let msg = if withdraw {
                    BgpMessage::withdraw(prefix)
                } else {
                    let mut ids = vec![peer];
                    for x in tail {
                        if !ids.contains(&x) {
                            ids.push(x);
                        }
                    }
                    ids.push(100);
                    BgpMessage::announce(prefix, AsPath::from_ids(ids))
                };
                let out = r.handle_message(n(peer), &msg, t, &mut rng);
                for (to, sent) in out.sends {
                    if ssld {
                        if let Some(path) = sent.path() {
                            prop_assert!(
                                !path.contains(to),
                                "SSLD must not announce {} to {}", path, to
                            );
                        }
                    }
                    if let Some(prev) = last_sent.get(&to) {
                        prop_assert_ne!(prev, &sent, "duplicate advert to {}", to);
                    }
                    last_sent.insert(to, sent);
                }
            }
        }
    }
}
