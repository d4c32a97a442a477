//! End-to-end invariants of the reproduction, checked across topology
//! families and seeds:
//!
//! * BGP with the paper's shortest-path policy converges to exactly
//!   the BFS shortest-path tree (with smaller-id tie-breaks);
//! * that stable state is the same for every seed, MRAI value and
//!   protocol variant;
//! * after convergence no forwarding loops remain;
//! * the overall looping duration never (materially) exceeds the
//!   convergence time;
//! * `T_down` leaves every node route-less, `T_long` leaves every node
//!   routed;
//! * the event kind changes nothing before the failure instant.

use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;

fn tdown(g: Graph, dest: NodeId, seed: u64) -> ScenarioResult {
    ScenarioSpec::new(
        TopologySpec::Custom {
            graph: g,
            destination: dest,
        },
        EventKind::TDown,
    )
    .with_seed(seed)
    .run()
}

#[test]
fn tdown_removes_every_route() {
    for seed in 1..=3 {
        let g = generators::internet_like(29, seed);
        let dest = bgpsim::topology::algo::lowest_degree_nodes(&g)[0];
        let result = tdown(g.clone(), dest, seed);
        for v in g.nodes() {
            assert_eq!(
                result.record.fib.current(v, Prefix::new(0)),
                None,
                "node {v} kept a route after T_down (seed {seed})"
            );
        }
    }
}

#[test]
fn tlong_final_routes_match_bfs_oracle() {
    for n in [3usize, 5, 7] {
        let result = ScenarioSpec::new(TopologySpec::BClique(n), EventKind::TLong)
            .with_seed(n as u64)
            .run();
        let (g, layout) = generators::bclique(n);
        let mut g2 = g;
        g2.remove_edge(layout.destination, layout.core_gateway);
        let oracle = algo::shortest_path_next_hops(&g2, layout.destination);
        for v in g2.nodes() {
            if v == layout.destination {
                continue;
            }
            let got = result
                .record
                .fib
                .current(v, Prefix::new(0))
                .and_then(|e| e.via());
            assert_eq!(got, oracle[v.index()], "next hop mismatch at {v} (n={n})");
        }
    }
}

/// A lowest-degree destination and a link it can lose without being
/// cut off, as the paper's `T_long` on Internet graphs needs.
fn multihomed_destination(graph: &Graph) -> (NodeId, NodeId) {
    let bridges = algo::bridges(graph);
    graph
        .nodes()
        .filter_map(|v| {
            graph
                .neighbors(v)
                .find(|&m| !bridges.contains(&bgpsim::topology::Edge::new(v, m)))
                .map(|m| (v, m))
        })
        .min_by_key(|&(v, _)| graph.degree(v))
        .expect("a multi-homed node")
}

/// Shortest-path policy with a deterministic tie-break admits one
/// stable state, so whatever order the event loop dispatched things
/// in — across seeds, MRAI values and all five protocol variants — the
/// network must settle on the BFS tree of the post-failure graph, which
/// shares no code with the engine.
#[test]
fn tlong_stable_state_is_unique_and_matches_bfs_oracle() {
    let prefix = Prefix::new(0);
    let (bclique, layout) = generators::bclique(8);
    let (internet, _) = TopologySpec::InternetLike {
        n: 110,
        topo_seed: 1,
    }
    .build();
    let (dest, peer) = multihomed_destination(&internet);
    for (label, graph, a, b) in [
        (
            "clique-15",
            generators::clique(15),
            NodeId::new(0),
            NodeId::new(1),
        ),
        (
            "b-clique-8",
            bclique,
            layout.destination,
            layout.core_gateway,
        ),
        ("internet-110", internet, dest, peer),
    ] {
        let mut after = graph.clone();
        after.remove_edge(a, b);
        let oracle = algo::shortest_path_next_hops(&after, a);
        for seed in 1..=5 {
            for mrai in [5, 30] {
                for enh in Enhancements::paper_variants() {
                    let config = BgpConfig::default()
                        .with_mrai(SimDuration::from_secs(mrai))
                        .with_enhancements(enh);
                    let rec = ConvergenceExperiment::new(
                        graph.clone(),
                        a,
                        FailureEvent::LinkDown { a, b },
                    )
                    .with_config(config)
                    .with_seed(seed)
                    .run();
                    let case = format!("{label} seed {seed} mrai {mrai} {}", enh.label());
                    assert_eq!(rec.fib.current(a, prefix), Some(FibEntry::Local), "{case}");
                    let table: Vec<Option<NodeId>> = graph
                        .nodes()
                        .map(|v| rec.fib.current(v, prefix).and_then(|e| e.via()))
                        .collect();
                    assert_eq!(table, oracle, "{case}");
                    let at_rest = rec.fib.snapshot(prefix, rec.quiescent_at);
                    assert!(find_loops(&at_rest).is_empty(), "{case}");
                }
            }
        }
    }
}

/// The paper's method is "converge first, then fail": the event kind
/// only decides what happens at the failure instant. So from-scratch
/// runs of one (topology, config, seed) under `T_down`, `T_long` and a
/// flap train must agree on that instant and on every message sent and
/// every route selected before it.
#[test]
fn event_kind_changes_nothing_before_the_failure() {
    let (internet, _) = TopologySpec::InternetLike {
        n: 110,
        topo_seed: 1,
    }
    .build();
    // `T_long` and flap runs re-pick a multi-homed destination on
    // Internet-like topologies; a fixed one keeps the warm-ups equal.
    let (destination, _) = multihomed_destination(&internet);
    for topology in [
        TopologySpec::Clique(10),
        TopologySpec::BClique(6),
        TopologySpec::Custom {
            graph: internet,
            destination,
        },
    ] {
        for seed in 1..=2 {
            let before_failure = |event: EventKind| {
                let record = ScenarioSpec::new(topology.clone(), event)
                    .with_seed(seed)
                    .run()
                    .record;
                let at = record.failure_at.expect("the event fired");
                let mut sends = record.sends;
                sends.retain(|s| s.at < at);
                let mut path_changes = record.path_changes;
                path_changes.retain(|c| c.at < at);
                assert!(!sends.is_empty() && !path_changes.is_empty());
                (at, sends, path_changes)
            };
            let tdown = before_failure(EventKind::TDown);
            for event in [EventKind::TLong, EventKind::Flap] {
                let case = format!("{} {} seed {seed}", topology.label(), event.label());
                assert!(before_failure(event) == tdown, "{case}");
            }
        }
    }
}

#[test]
fn no_loops_remain_after_convergence() {
    for seed in 1..=4 {
        let result = ScenarioSpec::new(
            TopologySpec::InternetLike {
                n: 48,
                topo_seed: seed,
            },
            EventKind::TDown,
        )
        .with_seed(seed)
        .run();
        for rec in &result.measurement.census {
            assert!(
                rec.resolved_at.is_some(),
                "loop {:?} never resolved (seed {seed})",
                rec.nodes
            );
        }
        // The forwarding graph at quiescence is loop-free.
        let snapshot = result
            .record
            .fib
            .snapshot(Prefix::new(0), result.record.quiescent_at);
        assert!(find_loops(&snapshot).is_empty());
    }
}

#[test]
fn looping_window_within_convergence_window() {
    for (spec, event) in [
        (TopologySpec::Clique(10), EventKind::TDown),
        (TopologySpec::BClique(6), EventKind::TLong),
    ] {
        let result = ScenarioSpec::new(spec, event).with_seed(5).run();
        let m = &result.measurement.metrics;
        let conv = m.convergence_secs();
        let lop = m.looping_secs();
        // A packet sent at the very end of convergence can exhaust its
        // TTL one lifetime (256 ms) later; allow that margin.
        assert!(
            lop <= conv + 0.3,
            "looping {lop}s exceeds convergence {conv}s"
        );
    }
}

#[test]
fn withdrawal_counts_are_consistent() {
    let result = ScenarioSpec::new(TopologySpec::Clique(8), EventKind::TDown)
        .with_seed(3)
        .run();
    let total = result.record.total_stats();
    let send_count = result.record.sends.len() as u64;
    assert_eq!(total.messages_sent(), send_count);
    let withdraw_count = result.record.sends.iter().filter(|s| s.withdraw).count() as u64;
    assert_eq!(total.withdrawals_sent, withdraw_count);
    assert!(withdraw_count > 0, "T_down must produce withdrawals");
}

#[test]
fn tdown_last_message_is_a_withdrawal() {
    // Paper footnote 2: the final update in T_down is a withdrawal
    // (not delayed by MRAI), which is why the looping/convergence gap
    // is tiny for T_down.
    let result = ScenarioSpec::new(TopologySpec::Clique(10), EventKind::TDown)
        .with_seed(9)
        .run();
    let fail = result.record.failure_at.expect("failure");
    let last = result
        .record
        .sends
        .iter()
        .rfind(|s| s.at >= fail)
        .expect("messages after failure");
    assert!(last.withdraw, "T_down must end with a withdrawal");
}

#[test]
fn longer_mrai_slows_convergence() {
    let run = |mrai: u64| {
        let cfg = BgpConfig::default().with_mrai(SimDuration::from_secs(mrai));
        ScenarioSpec::new(TopologySpec::Clique(8), EventKind::TDown)
            .with_config(cfg)
            .with_seed(4)
            .run()
            .measurement
            .metrics
            .convergence_secs()
    };
    let fast = run(5);
    let slow = run(45);
    assert!(
        slow > fast * 2.0,
        "convergence must scale with MRAI ({fast}s vs {slow}s)"
    );
}

#[test]
fn mrai_suppresses_update_messages() {
    // Griffin & Premore (cited as [5]): the MRAI timer is necessary to
    // suppress the large message volume of convergence — without it the
    // clique explores far more paths. (Their result also shows that
    // *convergence time* is not monotone in MRAI below the optimum, so
    // we deliberately do not compare times here.)
    let run = |mrai: u64| {
        let cfg = BgpConfig::default().with_mrai(SimDuration::from_secs(mrai));
        let r = ScenarioSpec::new(TopologySpec::Clique(8), EventKind::TDown)
            .with_config(cfg)
            .with_seed(4)
            .run();
        r.measurement.metrics.messages_after_failure
    };
    let msgs0 = run(0);
    let msgs30 = run(30);
    assert!(
        msgs0 > 2 * msgs30,
        "the MRAI timer suppresses updates (Griffin & Premore): {msgs0} vs {msgs30}"
    );
}
