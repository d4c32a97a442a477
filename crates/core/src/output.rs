//! Router output: the effects a router asks its host simulator to
//! perform.
//!
//! The router core is simulator-agnostic: processing an input returns a
//! [`RouterOutput`] describing messages to transmit, MRAI timer events
//! to schedule, and forwarding-table changes to apply. This keeps the
//! protocol engine unit-testable without any event loop.

use bgpsim_netsim::time::SimTime;
use bgpsim_topology::NodeId;

use crate::aspath::AsPath;
use crate::message::BgpMessage;
use crate::prefix::Prefix;

/// A forwarding-table entry for one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FibEntry {
    /// The prefix is locally originated: deliver.
    Local,
    /// Forward to this neighbor.
    Via(NodeId),
}

impl FibEntry {
    /// The next-hop neighbor, if the entry forwards.
    pub fn via(self) -> Option<NodeId> {
        match self {
            FibEntry::Local => None,
            FibEntry::Via(n) => Some(n),
        }
    }
}

/// A request to schedule an MRAI expiry callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MraiTimerRequest {
    /// The peer whose timer this is.
    pub peer: NodeId,
    /// The prefix whose timer this is.
    pub prefix: Prefix,
    /// When the timer expires. The host must call
    /// [`Router::on_mrai_expire`] at this instant.
    ///
    /// [`Router::on_mrai_expire`]: crate::router::Router::on_mrai_expire
    pub at: SimTime,
}

/// The route selected for a prefix, as exposed to observers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocRoute {
    /// Forwarding entry (local or via a neighbor).
    pub fib: FibEntry,
    /// The full local AS path (starts with the router's own id).
    pub path: AsPath,
}

/// Everything a router wants done after processing one input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterOutput {
    /// Messages to transmit now, in order, to the given peers.
    pub sends: Vec<(NodeId, BgpMessage)>,
    /// MRAI expiries the host must schedule.
    pub timers: Vec<MraiTimerRequest>,
    /// Forwarding-table changes (`None` = route lost).
    pub fib_changes: Vec<(Prefix, Option<FibEntry>)>,
}

impl RouterOutput {
    /// An output with no effects.
    pub fn empty() -> Self {
        RouterOutput::default()
    }

    /// Returns `true` if the output carries no effects.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.fib_changes.is_empty()
    }

    /// Appends all effects from `other`.
    pub fn merge(&mut self, other: RouterOutput) {
        self.sends.extend(other.sends);
        self.timers.extend(other.timers);
        self.fib_changes.extend(other.fib_changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_output() {
        let out = RouterOutput::empty();
        assert!(out.is_empty());
        assert_eq!(out, RouterOutput::default());
    }

    #[test]
    fn merge_concatenates() {
        let mut a = RouterOutput::empty();
        a.sends
            .push((NodeId::new(1), BgpMessage::withdraw(Prefix::new(0))));
        let mut b = RouterOutput::empty();
        b.fib_changes.push((Prefix::new(0), None));
        b.timers.push(MraiTimerRequest {
            peer: NodeId::new(1),
            prefix: Prefix::new(0),
            at: SimTime::from_secs(30),
        });
        a.merge(b);
        assert_eq!(a.sends.len(), 1);
        assert_eq!(a.timers.len(), 1);
        assert_eq!(a.fib_changes.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn fib_entry_via() {
        assert_eq!(FibEntry::Local.via(), None);
        assert_eq!(FibEntry::Via(NodeId::new(3)).via(), Some(NodeId::new(3)));
    }
}
