//! Routing information bases.
//!
//! Each router keeps, per prefix, an **Adj-RIB-In**: the most recent
//! path advertised by each neighbor. BGP advertises a route once and
//! stays silent until it changes, so this table is the router's entire
//! knowledge of its neighbors' routes — including knowledge that may be
//! *stale*, which is exactly how the transient loops of the study form
//! (§3.3: "a node can pick a backup path … even when the validity of
//! that path has been obsoleted by the latest topology change").

use bgpsim_topology::NodeId;

use crate::aspath::AsPath;

/// Per-prefix Adj-RIB-In: latest advertised path per neighbor.
///
/// Neighbor iteration is in ascending id order (deterministic), which
/// implements the paper's "smaller node ID wins ties" policy for free.
///
/// A router has at most `degree` neighbors, so the table is a vector
/// kept sorted by peer id: binary-search point ops, cache-friendly
/// candidate scans, and no per-entry allocation. This is the
/// stand-alone form of the table, for [`select_best`] and reference
/// implementations; [`Router`] keeps the same entries in its peer
/// slots.
///
/// [`select_best`]: crate::decision::select_best
/// [`Router`]: crate::router::Router
///
/// # Examples
///
/// ```
/// use bgpsim_core::rib::RibIn;
/// use bgpsim_core::AsPath;
/// use bgpsim_topology::NodeId;
///
/// let mut rib = RibIn::new();
/// rib.insert(NodeId::new(4), AsPath::from_ids([4, 0]));
/// assert_eq!(rib.get(NodeId::new(4)), Some(&AsPath::from_ids([4, 0])));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RibIn {
    /// Sorted by peer id.
    entries: Vec<(NodeId, AsPath)>,
}

impl RibIn {
    /// Creates an empty table.
    pub fn new() -> Self {
        RibIn::default()
    }

    /// Records `path` as the latest advertisement from `peer`,
    /// returning the previous one.
    pub fn insert(&mut self, peer: NodeId, path: AsPath) -> Option<AsPath> {
        match self.entries.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, path)),
            Err(i) => {
                self.entries.insert(i, (peer, path));
                None
            }
        }
    }

    /// Removes `peer`'s advertisement (withdrawal or session loss).
    pub fn remove(&mut self, peer: NodeId) -> Option<AsPath> {
        match self.entries.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The latest advertisement from `peer`, if any.
    pub fn get(&self, peer: NodeId) -> Option<&AsPath> {
        match self.entries.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => Some(&self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Number of neighbors with a stored route.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no neighbor has advertised a route.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(peer, path)` pairs in ascending peer order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &AsPath)> + '_ {
        self.entries.iter().map(|(p, path)| (*p, path))
    }

    /// Iterates over the *usable* candidates for `myself`: stored paths
    /// that do not already contain the local node. This is path-based
    /// poison reverse — the receiver-side loop check that lets a node
    /// discard arbitrarily long loops involving itself.
    pub fn candidates(&self, myself: NodeId) -> impl Iterator<Item = (NodeId, &AsPath)> + '_ {
        self.iter().filter(move |(_, path)| !path.contains(myself))
    }

    /// Removes entries for which `predicate` returns `true`, returning
    /// the removed `(peer, path)` pairs. Used by the Assertion
    /// enhancement to purge obsolete backups.
    pub fn remove_where<F>(&mut self, mut predicate: F) -> Vec<(NodeId, AsPath)>
    where
        F: FnMut(NodeId, &AsPath) -> bool,
    {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if predicate(self.entries[i].0, &self.entries[i].1) {
                removed.push(self.entries.remove(i));
            } else {
                i += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn insert_replaces_previous() {
        let mut rib = RibIn::new();
        assert_eq!(rib.insert(n(4), AsPath::from_ids([4, 0])), None);
        let old = rib.insert(n(4), AsPath::from_ids([4, 1, 0]));
        assert_eq!(old, Some(AsPath::from_ids([4, 0])));
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn remove_returns_entry() {
        let mut rib = RibIn::new();
        rib.insert(n(4), AsPath::from_ids([4, 0]));
        assert_eq!(rib.remove(n(4)), Some(AsPath::from_ids([4, 0])));
        assert_eq!(rib.remove(n(4)), None);
        assert!(rib.is_empty());
    }

    #[test]
    fn candidates_apply_poison_reverse() {
        // Node 5's view in paper Figure 1(a): direct path via 4 and the
        // poison-reverse path via 6 that contains node 5 itself... we
        // use node 4's view: paths from 5 and 6 both contain 4.
        let mut rib = RibIn::new();
        rib.insert(n(5), AsPath::from_ids([5, 4, 0]));
        rib.insert(n(6), AsPath::from_ids([6, 4, 0]));
        let usable: Vec<_> = rib.candidates(n(4)).collect();
        assert!(usable.is_empty(), "both paths contain node 4");
        let usable5: Vec<_> = rib.candidates(n(9)).map(|(p, _)| p).collect();
        assert_eq!(usable5, vec![n(5), n(6)]);
    }

    #[test]
    fn iteration_is_sorted_by_peer() {
        let mut rib = RibIn::new();
        rib.insert(n(6), AsPath::from_ids([6, 0]));
        rib.insert(n(3), AsPath::from_ids([3, 0]));
        rib.insert(n(5), AsPath::from_ids([5, 0]));
        let peers: Vec<_> = rib.iter().map(|(p, _)| p).collect();
        assert_eq!(peers, vec![n(3), n(5), n(6)]);
    }

    #[test]
    fn remove_where_purges_matching() {
        let mut rib = RibIn::new();
        rib.insert(n(3), AsPath::from_ids([3, 2, 1, 0]));
        rib.insert(n(5), AsPath::from_ids([5, 4, 0]));
        rib.insert(n(6), AsPath::from_ids([6, 4, 0]));
        // Purge everything routed through node 4 (e.g. node 4 withdrew).
        let removed = rib.remove_where(|_, path| path.contains(n(4)));
        assert_eq!(removed.len(), 2);
        assert_eq!(rib.len(), 1);
        assert!(rib.get(n(3)).is_some());
    }
}
