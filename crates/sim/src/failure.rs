//! Failure injection.
//!
//! The study triggers routing convergence with two event classes
//! (§4.1):
//!
//! * **T_down** — the destination AS becomes unreachable from the rest
//!   of the network. Modelled as the origin withdrawing the prefix
//!   ([`FailureEvent::WithdrawPrefix`]) or as the destination node
//!   losing all its links ([`FailureEvent::NodeDown`]).
//! * **T_long** — a link fails without disconnecting the destination,
//!   forcing the network onto longer paths
//!   ([`FailureEvent::LinkDown`]).

use bgpsim_core::Prefix;
use bgpsim_topology::NodeId;

/// A topology or policy change injected into a running simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureEvent {
    /// The origin withdraws `prefix` — the canonical `T_down` trigger
    /// (Labovitz et al.'s "route withdrawn" event).
    WithdrawPrefix {
        /// The originating AS.
        origin: NodeId,
        /// The withdrawn prefix.
        prefix: Prefix,
    },
    /// The link between two ASes fails; both ends lose the session —
    /// the `T_long` trigger when the graph stays connected.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Every link of `node` fails — an alternative `T_down` trigger
    /// that physically isolates the destination AS.
    NodeDown {
        /// The failing AS.
        node: NodeId,
    },
    /// A previously failed link comes back up; both ends re-establish
    /// the session and re-advertise their routes — the recovery
    /// (`T_up`-style) event studied in the convergence literature.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The BGP session between `a` and `b` restarts: both ends flush
    /// the peer's routes and immediately re-advertise. The underlying
    /// link never goes down, so no messages are dropped in transit —
    /// the churn comes purely from the control-plane flush.
    SessionReset {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl FailureEvent {
    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            FailureEvent::WithdrawPrefix { origin, prefix } => {
                format!("T_down: {origin} withdraws {prefix}")
            }
            FailureEvent::LinkDown { a, b } => format!("link [{a} {b}] fails"),
            FailureEvent::NodeDown { node } => format!("node {node} fails"),
            FailureEvent::LinkUp { a, b } => format!("link [{a} {b}] recovers"),
            FailureEvent::SessionReset { a, b } => format!("session [{a} {b}] resets"),
        }
    }
}

/// One directed half of a [`FailureEvent`], touching exactly one node
/// and (at most) the link row *from* that node.
///
/// Failures are split into halves when they are **scheduled**, not when
/// they fire: a `LinkDown {a, b}` becomes two `FailureHalf` events with
/// adjacent order keys — one dispatched on `a`, one on `b`. The engine
/// dispatches them back-to-back at the same instant, so the split is
/// unobservable in any [`RunRecord`](crate::RunRecord) field.
///
/// `origin_event` is `Some` on exactly one half per injected failure
/// (the *primary* half), which carries the run-level bookkeeping: the
/// `faults_injected` / `session_resets` counters and the
/// `fault_injected` / `session_reset` trace lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureHalf {
    /// The single-node action this half performs.
    pub action: HalfAction,
    /// The originating failure, present only on the primary half.
    pub origin_event: Option<FailureEvent>,
}

impl FailureHalf {
    /// The node this half must be dispatched on.
    pub fn node(&self) -> NodeId {
        self.action.node()
    }
}

/// The single-node effect of a [`FailureHalf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HalfAction {
    /// `origin` withdraws `prefix` (a `WithdrawPrefix` has one half).
    Withdraw {
        /// The originating AS.
        origin: NodeId,
        /// The withdrawn prefix.
        prefix: Prefix,
    },
    /// `node` loses its session toward `peer`: the directed link row
    /// `node -> peer` fails and `node`'s router reacts to the peer
    /// loss.
    PeerDown {
        /// The reacting AS.
        node: NodeId,
        /// The peer that became unreachable.
        peer: NodeId,
    },
    /// `node` regains its session toward `peer`: the directed link row
    /// `node -> peer` recovers and `node`'s router re-advertises.
    PeerUp {
        /// The reacting AS.
        node: NodeId,
        /// The peer that came back.
        peer: NodeId,
    },
    /// `node` flushes routes learned from `peer` and re-advertises;
    /// the link itself stays up.
    ResetPeer {
        /// The reacting AS.
        node: NodeId,
        /// The peer whose session restarted.
        peer: NodeId,
    },
}

impl HalfAction {
    /// The node this action is local to.
    pub fn node(&self) -> NodeId {
        match *self {
            HalfAction::Withdraw { origin, .. } => origin,
            HalfAction::PeerDown { node, .. }
            | HalfAction::PeerUp { node, .. }
            | HalfAction::ResetPeer { node, .. } => node,
        }
    }
}

impl FailureEvent {
    /// Splits this failure into per-node halves, primary half first.
    ///
    /// `peers_of` supplies the neighbor list used for [`NodeDown`]
    /// (the node's current peers at scheduling time); the other
    /// variants ignore it. The returned order is deterministic:
    /// callers schedule the halves consecutively so they stay adjacent
    /// in the global `(time, order)` event order.
    ///
    /// [`NodeDown`]: FailureEvent::NodeDown
    pub fn halves<F>(self, peers_of: F) -> Vec<FailureHalf>
    where
        F: FnOnce(NodeId) -> Vec<NodeId>,
    {
        let primary = |action| FailureHalf {
            action,
            origin_event: Some(self),
        };
        let secondary = |action| FailureHalf {
            action,
            origin_event: None,
        };
        match self {
            FailureEvent::WithdrawPrefix { origin, prefix } => {
                vec![primary(HalfAction::Withdraw { origin, prefix })]
            }
            FailureEvent::LinkDown { a, b } => vec![
                primary(HalfAction::PeerDown { node: a, peer: b }),
                secondary(HalfAction::PeerDown { node: b, peer: a }),
            ],
            FailureEvent::LinkUp { a, b } => vec![
                primary(HalfAction::PeerUp { node: a, peer: b }),
                secondary(HalfAction::PeerUp { node: b, peer: a }),
            ],
            FailureEvent::SessionReset { a, b } => vec![
                primary(HalfAction::ResetPeer { node: a, peer: b }),
                secondary(HalfAction::ResetPeer { node: b, peer: a }),
            ],
            FailureEvent::NodeDown { node } => {
                let mut halves = Vec::new();
                for peer in peers_of(node) {
                    let action = HalfAction::PeerDown { node, peer };
                    // Exactly one primary half per failure: the first.
                    if halves.is_empty() {
                        halves.push(primary(action));
                    } else {
                        halves.push(secondary(action));
                    }
                    halves.push(secondary(HalfAction::PeerDown {
                        node: peer,
                        peer: node,
                    }));
                }
                if halves.is_empty() {
                    // An isolated node still counts as an injected
                    // fault: keep a primary no-op half so bookkeeping
                    // (failure_at, counters, traces) stays uniform.
                    halves.push(primary(HalfAction::PeerDown { node, peer: node }));
                }
                halves
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptions_are_informative() {
        let w = FailureEvent::WithdrawPrefix {
            origin: NodeId::new(0),
            prefix: Prefix::new(0),
        };
        assert!(w.describe().contains("T_down"));
        let l = FailureEvent::LinkDown {
            a: NodeId::new(0),
            b: NodeId::new(5),
        };
        assert!(l.describe().contains("[AS0 AS5]"));
        let n = FailureEvent::NodeDown {
            node: NodeId::new(3),
        };
        assert!(n.describe().contains("AS3"));
    }

    #[test]
    fn link_down_splits_into_two_halves_primary_first() {
        let f = FailureEvent::LinkDown {
            a: NodeId::new(1),
            b: NodeId::new(2),
        };
        let halves = f.halves(|_| unreachable!("LinkDown ignores peers"));
        assert_eq!(halves.len(), 2);
        assert_eq!(halves[0].origin_event, Some(f));
        assert_eq!(halves[1].origin_event, None);
        assert_eq!(halves[0].node(), NodeId::new(1));
        assert_eq!(halves[1].node(), NodeId::new(2));
        assert_eq!(
            halves[1].action,
            HalfAction::PeerDown {
                node: NodeId::new(2),
                peer: NodeId::new(1),
            }
        );
    }

    #[test]
    fn withdraw_is_a_single_primary_half() {
        let f = FailureEvent::WithdrawPrefix {
            origin: NodeId::new(4),
            prefix: Prefix::new(0),
        };
        let halves = f.halves(|_| unreachable!());
        assert_eq!(halves.len(), 1);
        assert!(halves[0].origin_event.is_some());
        assert_eq!(halves[0].node(), NodeId::new(4));
    }

    #[test]
    fn node_down_interleaves_peer_pairs_with_one_primary() {
        let f = FailureEvent::NodeDown {
            node: NodeId::new(0),
        };
        let halves = f.halves(|n| {
            assert_eq!(n, NodeId::new(0));
            vec![NodeId::new(1), NodeId::new(2)]
        });
        // [0->1 (primary), 1->0, 0->2, 2->0]
        assert_eq!(halves.len(), 4);
        assert_eq!(
            halves.iter().filter(|h| h.origin_event.is_some()).count(),
            1
        );
        assert!(halves[0].origin_event.is_some());
        let nodes: Vec<_> = halves.iter().map(|h| h.node().as_u32()).collect();
        assert_eq!(nodes, vec![0, 1, 0, 2]);
    }

    #[test]
    fn isolated_node_down_keeps_a_bookkeeping_half() {
        let f = FailureEvent::NodeDown {
            node: NodeId::new(9),
        };
        let halves = f.halves(|_| Vec::new());
        assert_eq!(halves.len(), 1);
        assert_eq!(halves[0].origin_event, Some(f));
    }
}
