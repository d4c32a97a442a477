//! Randomized end-to-end properties: on arbitrary connected random
//! topologies, with arbitrary enhancement sets and MRAI values, the
//! protocol always converges to the BFS oracle, loops always resolve,
//! and runs are reproducible.

use bgpsim::netsim::rng::SimRng;
use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;
use proptest::prelude::*;

/// A connected random graph (retry over seeds until connected).
fn connected_gnp(n: usize, p: f64, seed: u64) -> Graph {
    for attempt in 0..50 {
        let g = generators::random_gnp(n, p, &mut SimRng::new(seed + attempt * 1000));
        if algo::is_connected(&g) {
            return g;
        }
    }
    // Fall back to something always connected.
    generators::ring(n.max(3))
}

fn enhancement_from_bits(bits: u8) -> Enhancements {
    Enhancements {
        ssld: bits & 1 != 0,
        wrate: bits & 2 != 0,
        assertion: bits & 4 != 0,
        ghost_flushing: bits & 8 != 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// T_down on a random topology with a random enhancement mix:
    /// everyone ends route-less, every loop resolves, and the run is
    /// deterministic.
    #[test]
    fn random_tdown_always_converges(
        n in 4usize..12,
        p in 0.3f64..0.9,
        seed in 0u64..500,
        enh_bits in 0u8..16,
        mrai in 1u64..20,
    ) {
        let g = connected_gnp(n, p, seed);
        let dest = NodeId::new((seed % n as u64) as u32);
        let cfg = BgpConfig::default()
            .with_mrai(SimDuration::from_secs(mrai))
            .with_enhancements(enhancement_from_bits(enh_bits));
        let run = || {
            ScenarioSpec::new(
                TopologySpec::Custom { graph: g.clone(), destination: dest },
                EventKind::TDown,
            )
            .with_config(cfg)
            .with_seed(seed)
            .run()
        };
        let result = run();
        // Everyone is route-less at the end.
        for v in g.nodes() {
            prop_assert_eq!(result.record.fib.current(v, Prefix::new(0)), None);
        }
        // All loops resolved.
        for l in &result.measurement.census {
            prop_assert!(l.resolved_at.is_some(), "unresolved loop {:?}", l.nodes);
        }
        // Reproducible.
        let again = run();
        prop_assert_eq!(&result.record.sends, &again.record.sends);
    }

    /// Initial convergence on a random topology always reaches the BFS
    /// shortest-path oracle, for any enhancement mix (enhancements only
    /// shape the transient).
    #[test]
    fn random_initial_convergence_matches_oracle(
        n in 4usize..12,
        p in 0.3f64..0.9,
        seed in 0u64..500,
        enh_bits in 0u8..16,
    ) {
        let g = connected_gnp(n, p, seed);
        let dest = NodeId::new((seed % n as u64) as u32);
        let cfg = BgpConfig::default()
            .with_mrai(SimDuration::from_secs(5))
            .with_enhancements(enhancement_from_bits(enh_bits));
        let mut net = SimNetwork::new(&g, cfg, SimParams::default(), seed);
        net.originate(dest, Prefix::new(0));
        prop_assert_eq!(net.run_to_quiescence(50_000_000), RunOutcome::Quiescent);
        let oracle = algo::shortest_path_next_hops(&g, dest);
        for v in g.nodes() {
            if v == dest {
                prop_assert_eq!(net.fib().current(v, Prefix::new(0)), Some(FibEntry::Local));
                continue;
            }
            prop_assert_eq!(
                net.fib().current(v, Prefix::new(0)).and_then(|e| e.via()),
                oracle[v.index()],
                "node {} (enh {:?})", v, enh_bits
            );
        }
    }

    /// Failing a non-cut link leaves everyone routed, and the final
    /// state matches the oracle on the reduced graph.
    #[test]
    fn random_tlong_reroutes_correctly(
        n in 5usize..12,
        seed in 0u64..300,
    ) {
        let g = connected_gnp(n, 0.5, seed);
        let dest = NodeId::new(0);
        // Find a removable (non-cut) edge.
        let mut candidate = None;
        for e in g.edges() {
            let mut g2 = g.clone();
            g2.remove_edge(e.lo(), e.hi());
            if algo::is_connected(&g2) {
                candidate = Some(e);
                break;
            }
        }
        prop_assume!(candidate.is_some());
        let e = candidate.expect("checked above");
        let mut net = SimNetwork::new(
            &g,
            BgpConfig::default().with_mrai(SimDuration::from_secs(5)),
            SimParams::default(),
            seed,
        );
        net.originate(dest, Prefix::new(0));
        net.run_to_quiescence(50_000_000);
        net.inject_failure(FailureEvent::LinkDown { a: e.lo(), b: e.hi() });
        prop_assert_eq!(net.run_to_quiescence(50_000_000), RunOutcome::Quiescent);
        let mut g2 = g.clone();
        g2.remove_edge(e.lo(), e.hi());
        let oracle = algo::shortest_path_next_hops(&g2, dest);
        for v in g2.nodes() {
            if v == dest { continue; }
            prop_assert_eq!(
                net.fib().current(v, Prefix::new(0)).and_then(|x| x.via()),
                oracle[v.index()],
                "node {}", v
            );
        }
    }
}
