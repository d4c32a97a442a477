//! # bgpsim-topology
//!
//! AS-level topology types, generators and graph algorithms for the
//! `bgpsim` BGP route-looping study (ICDCS 2004 reproduction).
//!
//! The crate provides:
//!
//! * [`Graph`] — a deterministic, simple, undirected graph over dense
//!   node ids;
//! * [`generators`] — the paper's topology families (Clique, B-Clique,
//!   Internet-like) plus standard shapes;
//! * [`algo`] — BFS, connectivity, diameter, degree statistics, and the
//!   shortest-path next-hop oracle used to check BGP convergence.
//!
//! ## Example
//!
//! ```
//! use bgpsim_topology::{algo, generators, NodeId};
//!
//! let (g, layout) = generators::bclique(5);
//! assert!(algo::is_connected(&g));
//! let next = algo::shortest_path_next_hops(&g, layout.destination);
//! // The core gateway reaches the destination directly.
//! assert_eq!(next[layout.core_gateway.index()], Some(layout.destination));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod generators;
pub mod graph;
pub mod node;
pub mod relationships;

pub use graph::{Edge, Graph};
pub use node::NodeId;

#[cfg(test)]
mod proptests {
    use crate::{algo, generators, Graph, NodeId};
    use bgpsim_netsim::rng::SimRng;
    use proptest::prelude::*;

    proptest! {
        /// Internet-like graphs are connected and AS-shaped for any size
        /// and seed.
        #[test]
        fn internet_like_invariants(n in 5usize..120, seed in 0u64..50) {
            let g = generators::internet_like(n, seed);
            prop_assert_eq!(g.node_count(), n);
            prop_assert!(algo::is_connected(&g));
            let stats = algo::degree_stats(&g).unwrap();
            prop_assert!(stats.min >= 1);
        }

        /// Handshake lemma: sum of degrees equals twice the edge count.
        #[test]
        fn handshake_lemma(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
            let clean: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
            let mut g = Graph::with_nodes(40);
            for (a, b) in clean {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }

        /// BFS distances satisfy the triangle property along edges:
        /// adjacent nodes' distances differ by at most 1.
        #[test]
        fn bfs_lipschitz_along_edges(n in 2usize..40, p in 0.05f64..0.9, seed in 0u64..20) {
            let g = generators::random_gnp(n, p, &mut SimRng::new(seed));
            let d = algo::bfs_distances(&g, NodeId::new(0));
            for e in g.edges() {
                if let (Some(da), Some(db)) = (d[e.lo().index()], d[e.hi().index()]) {
                    prop_assert!(da.abs_diff(db) <= 1);
                }
            }
        }

        /// The shortest-path next-hop oracle routes strictly downhill:
        /// following it decreases BFS distance by exactly one, so routes
        /// are loop-free and minimal.
        #[test]
        fn next_hops_descend(n in 2usize..40, p in 0.1f64..0.9, seed in 0u64..20) {
            let g = generators::random_gnp(n, p, &mut SimRng::new(seed));
            let dest = NodeId::new(0);
            let dist = algo::bfs_distances(&g, dest);
            let next = algo::shortest_path_next_hops(&g, dest);
            for u in g.nodes() {
                if u == dest { continue; }
                match (dist[u.index()], next[u.index()]) {
                    (Some(du), Some(h)) => {
                        prop_assert_eq!(dist[h.index()], Some(du - 1));
                    }
                    (None, None) => {}
                    (d, h) => prop_assert!(false, "inconsistent oracle at {}: {:?} {:?}", u, d, h),
                }
            }
        }

        /// Tarjan bridge finding agrees with the brute-force
        /// definition: an edge is a bridge iff removing it increases
        /// the number of connected components.
        #[test]
        fn bridges_match_brute_force(n in 2usize..25, p in 0.05f64..0.6, seed in 0u64..40) {
            let g = generators::random_gnp(n, p, &mut SimRng::new(seed));
            let fast: std::collections::BTreeSet<_> = algo::bridges(&g).into_iter().collect();
            for e in g.edges() {
                let comps_before = algo::components(&g).len();
                let mut g2 = g.clone();
                g2.remove_edge(e.lo(), e.hi());
                let is_bridge = algo::components(&g2).len() > comps_before;
                prop_assert_eq!(
                    fast.contains(&e),
                    is_bridge,
                    "edge {} (bridge={})", e, is_bridge
                );
            }
        }
    }
}
