//! A CAIDA-style AS-relationship sample, annotated by hand, run through
//! the full policy-routing simulation.

use bgpsim::bgp::policy::{is_valley_free, GaoRexford};
use bgpsim::prelude::*;
use bgpsim::topology::relationships::{Relationship, RelationshipMap};
use Relationship::{Customer, Peer};

/// The sample's AS numbers: node `i` is AS `ASNS[i]`.
const ASNS: [u32; 9] = [174, 3356, 1299, 7018, 6939, 6453, 64496, 64497, 64498];

/// A small but realistic AS-relationship snippet: two tier-1s peering,
/// regional providers below them, stubs at the bottom. `(a, b, rel)`
/// says what `b` is to `a`.
const LINKS: [(u32, u32, Relationship); 11] = [
    (174, 3356, Peer),
    (174, 1299, Peer),
    (3356, 1299, Peer),
    (174, 7018, Customer),
    (3356, 6939, Customer),
    (1299, 6453, Customer),
    (7018, 64496, Customer),
    (6939, 64496, Customer),
    (6939, 64497, Customer),
    (6453, 64498, Customer),
    (7018, 6939, Peer),
];

fn node_of(asn: u32) -> NodeId {
    let i = ASNS.iter().position(|&a| a == asn).expect("AS in sample");
    NodeId::new(i as u32)
}

fn sample() -> (Graph, RelationshipMap) {
    let mut graph = Graph::with_nodes(ASNS.len());
    let mut rels = RelationshipMap::new();
    for (a, b, rel) in LINKS {
        let (a, b) = (node_of(a), node_of(b));
        assert!(graph.add_edge(a, b), "duplicate link");
        rels.set(a, b, rel);
    }
    (graph, rels)
}

#[test]
fn caida_document_simulates_end_to_end() {
    let (graph, relationships) = sample();
    assert!(algo::is_connected(&graph));
    assert!(relationships.covers(&graph));

    // Originate at the multihomed stub AS64496 and converge under
    // Gao–Rexford policies derived from the annotations.
    let dest = node_of(64496);
    let prefix = Prefix::new(0);
    let rels = relationships.clone();
    let mut net = SimNetwork::with_policies(
        &graph,
        BgpConfig::default(),
        SimParams::default(),
        42,
        move |node| GaoRexford::for_node(node, &rels),
    );
    net.originate(dest, prefix);
    assert_eq!(net.run_to_quiescence(50_000_000), RunOutcome::Quiescent);

    // A stub's prefix is reachable from every AS (customer routes are
    // exported upward and across), and every route is valley-free.
    let mut reached = 0;
    for v in graph.nodes() {
        if v == dest {
            continue;
        }
        let route = net
            .router(v)
            .best(prefix)
            .unwrap_or_else(|| panic!("AS{} has no route", ASNS[v.index()]));
        assert!(
            is_valley_free(&route.path, &relationships),
            "valley in {}",
            route.path
        );
        reached += 1;
    }
    assert_eq!(reached, graph.node_count() - 1);

    // The multihomed stub's two providers (7018, 6939) both reach it
    // directly.
    for provider_asn in [7018u32, 6939] {
        assert_eq!(
            net.router(node_of(provider_asn))
                .best(prefix)
                .expect("route")
                .fib,
            FibEntry::Via(dest),
            "AS{provider_asn} should use its direct customer link"
        );
    }
}

#[test]
fn caida_tdown_still_loops_under_shortest_path() {
    // The same graph under the paper's shortest-path policy (no
    // filtering): a T_down at the stub triggers path exploration.
    let (graph, _) = sample();
    let node_count = graph.node_count() as u64;
    let result = Scenario::new(
        TopologySpec::Custom {
            graph,
            destination: node_of(64496),
        },
        EventKind::TDown,
    )
    .with_seed(7)
    .run();
    assert!(result.record.convergence_time().is_some());
    assert!(
        result.measurement.metrics.messages_after_failure > node_count,
        "withdrawal must ripple through the whole graph"
    );
}
