//! The BGP decision process.
//!
//! The study configures a shortest-AS-path policy with "smaller node ID"
//! tie-breaking (§3). The decision process is pluggable through
//! [`RoutePolicy`] so other preference schemes can be studied; the
//! default [`ShortestPath`] implements the paper's rule exactly.

use std::cmp::Ordering;

use bgpsim_topology::NodeId;

use crate::aspath::AsPath;
use crate::rib::RibIn;

/// A route selection policy: a total preference order over candidate
/// routes `(advertising peer, advertised path)`.
///
/// Implementations must be total and deterministic: the simulator's
/// reproducibility depends on it.
pub trait RoutePolicy {
    /// Compares two candidates; `Ordering::Less` means `a` is
    /// *preferred* over `b`.
    fn compare(&self, a: (NodeId, &AsPath), b: (NodeId, &AsPath)) -> Ordering;

    /// Import filter: returns `true` if a route from `peer` may be used
    /// at all. The default accepts everything.
    fn accepts(&self, _peer: NodeId, _path: &AsPath) -> bool {
        true
    }

    /// Export filter: may the currently selected route — learned from
    /// `learned_from` (`None` if locally originated) — be advertised to
    /// `to`? The default exports everything; Gao–Rexford-style policies
    /// restrict peer/provider routes to customers (see
    /// [`GaoRexford`](crate::policy::GaoRexford)).
    fn export_allowed(&self, _learned_from: Option<NodeId>, _to: NodeId) -> bool {
        true
    }
}

/// Shortest AS path, ties broken by the smaller advertising-node id —
/// the policy used throughout the ICDCS'04 study.
///
/// # Examples
///
/// ```
/// use bgpsim_core::decision::{RoutePolicy, ShortestPath};
/// use bgpsim_core::AsPath;
/// use bgpsim_topology::NodeId;
/// use std::cmp::Ordering;
///
/// let short = AsPath::from_ids([5, 0]);
/// let long = AsPath::from_ids([6, 4, 0]);
/// let p = ShortestPath;
/// assert_eq!(
///     p.compare((NodeId::new(5), &short), (NodeId::new(6), &long)),
///     Ordering::Less
/// );
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShortestPath;

impl RoutePolicy for ShortestPath {
    fn compare(&self, a: (NodeId, &AsPath), b: (NodeId, &AsPath)) -> Ordering {
        a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(&b.0))
    }
}

/// A route chosen by the decision process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The neighbor the route was learned from (the forwarding next
    /// hop).
    pub next_hop: NodeId,
    /// The local path: our own id prepended to the neighbor's path.
    pub path: AsPath,
}

/// Runs the decision process for `myself` over the Adj-RIB-In.
///
/// Candidates containing `myself` are excluded (path-based poison
/// reverse); the policy then picks the most preferred of the rest.
/// Returns `None` if no usable route exists.
///
/// # Examples
///
/// ```
/// use bgpsim_core::decision::{select_best, ShortestPath};
/// use bgpsim_core::rib::RibIn;
/// use bgpsim_core::AsPath;
/// use bgpsim_topology::NodeId;
///
/// let mut rib = RibIn::new();
/// rib.insert(NodeId::new(4), AsPath::from_ids([4, 0]));
/// rib.insert(NodeId::new(6), AsPath::from_ids([6, 4, 0]));
/// let best = select_best(&rib, NodeId::new(5), &ShortestPath).unwrap();
/// assert_eq!(best.next_hop, NodeId::new(4));
/// assert_eq!(best.path, AsPath::from_ids([5, 4, 0]));
/// ```
pub fn select_best<P: RoutePolicy>(rib: &RibIn, myself: NodeId, policy: &P) -> Option<Selection> {
    let candidates = rib
        .candidates(myself)
        .filter(|&(peer, path)| policy.accepts(peer, path));
    most_preferred(policy, candidates).map(|(peer, path)| Selection {
        next_hop: peer,
        path: path.prepend(myself),
    })
}

/// The most preferred of `candidates` under `policy`, by reference; of
/// equally preferred ones, the first. This is the one scan behind both
/// [`select_best`] and the router's own decision process, which
/// feeds it straight from its peer slots.
pub fn most_preferred<'r, P: RoutePolicy>(
    policy: &P,
    candidates: impl Iterator<Item = (NodeId, &'r AsPath)>,
) -> Option<(NodeId, &'r AsPath)> {
    candidates.reduce(|best, candidate| {
        if policy.compare(candidate, best) == Ordering::Less {
            candidate
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn shorter_path_wins() {
        let mut rib = RibIn::new();
        rib.insert(n(3), AsPath::from_ids([3, 2, 1, 0]));
        rib.insert(n(5), AsPath::from_ids([5, 4, 0]));
        let best = select_best(&rib, n(6), &ShortestPath).unwrap();
        assert_eq!(best.next_hop, n(5));
        assert_eq!(best.path, AsPath::from_ids([6, 5, 4, 0]));
    }

    #[test]
    fn equal_length_tie_breaks_on_smaller_id() {
        let mut rib = RibIn::new();
        rib.insert(n(7), AsPath::from_ids([7, 4, 0]));
        rib.insert(n(2), AsPath::from_ids([2, 4, 0]));
        let best = select_best(&rib, n(9), &ShortestPath).unwrap();
        assert_eq!(best.next_hop, n(2));
    }

    #[test]
    fn looped_candidates_excluded() {
        // Figure 1(b): after the withdrawal, node 5 only holds node 6's
        // poison-reverse-able path if it contains 5 — excluded.
        let mut rib = RibIn::new();
        rib.insert(n(6), AsPath::from_ids([6, 5, 4, 0]));
        assert_eq!(select_best(&rib, n(5), &ShortestPath), None);
    }

    #[test]
    fn empty_rib_gives_none() {
        let rib = RibIn::new();
        assert_eq!(select_best(&rib, n(1), &ShortestPath), None);
    }

    #[test]
    fn import_filter_respected() {
        struct RejectPeer(NodeId);
        impl RoutePolicy for RejectPeer {
            fn compare(&self, a: (NodeId, &AsPath), b: (NodeId, &AsPath)) -> Ordering {
                ShortestPath.compare(a, b)
            }
            fn accepts(&self, peer: NodeId, _path: &AsPath) -> bool {
                peer != self.0
            }
        }
        let mut rib = RibIn::new();
        rib.insert(n(4), AsPath::from_ids([4, 0]));
        rib.insert(n(6), AsPath::from_ids([6, 4, 0]));
        let best = select_best(&rib, n(5), &RejectPeer(n(4))).unwrap();
        assert_eq!(best.next_hop, n(6));
    }

    #[test]
    fn selection_path_starts_with_self() {
        let mut rib = RibIn::new();
        rib.insert(n(4), AsPath::from_ids([4, 0]));
        let best = select_best(&rib, n(5), &ShortestPath).unwrap();
        assert_eq!(best.path.head(), n(5));
        assert_eq!(best.path.origin(), n(0));
    }

    #[test]
    fn policy_is_deterministic_under_reordering() {
        // Insert in two different orders; result identical.
        let mut a = RibIn::new();
        a.insert(n(1), AsPath::from_ids([1, 0]));
        a.insert(n(2), AsPath::from_ids([2, 0]));
        let mut b = RibIn::new();
        b.insert(n(2), AsPath::from_ids([2, 0]));
        b.insert(n(1), AsPath::from_ids([1, 0]));
        assert_eq!(
            select_best(&a, n(9), &ShortestPath),
            select_best(&b, n(9), &ShortestPath)
        );
    }
}
