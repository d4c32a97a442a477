//! Network-level simulation events.

use bgpsim_core::{BgpMessage, Prefix};
use bgpsim_topology::NodeId;

use crate::failure::FailureHalf;

/// Events dispatched by the network simulation loop.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// A BGP message reached a node's input queue (after link delay).
    /// It still has to wait for the node's serial processor.
    MessageArrival {
        /// Receiving node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: BgpMessage,
    },
    /// A BGP message finished processing at a node; the router reacts
    /// now.
    MessageProcessed {
        /// Receiving node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: BgpMessage,
    },
    /// An MRAI timer expired at `node` for `(peer, prefix)`.
    MraiExpiry {
        /// The node whose timer fired.
        node: NodeId,
        /// The peer the timer gates.
        peer: NodeId,
        /// The prefix the timer gates.
        prefix: Prefix,
    },
    /// One scheduled failure half fires. Failures are split into
    /// per-node halves at scheduling time (see
    /// [`FailureEvent::halves`](crate::FailureEvent::halves)) so every
    /// event touches a single node; the halves of one failure carry
    /// adjacent order keys and fire back-to-back.
    Failure(FailureHalf),
    /// A fault-plan half fires. Behaves like [`NetEvent::Failure`] but
    /// its primary half is counted and traced as injected churn
    /// (`fault_injected` events).
    Fault(FailureHalf),
    /// A live data packet takes its next hop (event-driven data plane,
    /// used to cross-validate the replay engine).
    PacketHop {
        /// Packet id.
        id: u64,
        /// Current node.
        node: NodeId,
        /// Destination prefix.
        prefix: Prefix,
        /// Remaining TTL.
        ttl: u32,
        /// AS hops taken so far.
        hops: u32,
    },
}

impl NetEvent {
    /// A stable snake_case name for the event's class, used by the
    /// trace layer's `event_dispatch` records.
    pub fn class(&self) -> &'static str {
        match self {
            NetEvent::MessageArrival { .. } => "message_arrival",
            NetEvent::MessageProcessed { .. } => "message_processed",
            NetEvent::MraiExpiry { .. } => "mrai_expiry",
            NetEvent::Failure(_) => "failure",
            NetEvent::Fault(_) => "fault",
            NetEvent::PacketHop { .. } => "packet_hop",
        }
    }

    /// The node the event is dispatched on. Every event is local to
    /// exactly one node, which selects the per-node RNG lane whose
    /// counter orders the events the dispatch schedules.
    pub fn node(&self) -> NodeId {
        match self {
            NetEvent::MessageArrival { to, .. } | NetEvent::MessageProcessed { to, .. } => *to,
            NetEvent::MraiExpiry { node, .. } | NetEvent::PacketHop { node, .. } => *node,
            NetEvent::Failure(half) | NetEvent::Fault(half) => half.node(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Cloning is the behavior under test.
    #[allow(clippy::redundant_clone)]
    fn events_are_cloneable_and_debuggable() {
        let ev = NetEvent::MraiExpiry {
            node: NodeId::new(1),
            peer: NodeId::new(2),
            prefix: Prefix::new(0),
        };
        let cloned = ev.clone();
        assert!(format!("{cloned:?}").contains("MraiExpiry"));
    }
}
