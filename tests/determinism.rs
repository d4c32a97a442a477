//! Whole-stack determinism: identical seeds give bit-identical runs,
//! different seeds diverge, and component RNG streams are independent.

use bgpsim::prelude::*;

fn fingerprint(result: &ScenarioResult) -> (usize, u64, String, u64) {
    (
        result.record.sends.len(),
        result.measurement.metrics.ttl_exhaustions,
        format!("{:?}", result.record.quiescent_at),
        result.record.total_stats().messages_received,
    )
}

#[test]
fn identical_seeds_identical_runs() {
    for (spec, event) in [
        (TopologySpec::Clique(8), EventKind::TDown),
        (TopologySpec::BClique(5), EventKind::TLong),
        (
            TopologySpec::InternetLike {
                n: 29,
                topo_seed: 3,
            },
            EventKind::TDown,
        ),
    ] {
        let a = ScenarioSpec::new(spec.clone(), event).with_seed(77).run();
        let b = ScenarioSpec::new(spec.clone(), event).with_seed(77).run();
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}", spec.label());
        assert_eq!(a.record.sends, b.record.sends);
        assert_eq!(a.measurement.census, b.measurement.census);
    }
}

#[test]
fn different_seeds_differ() {
    let a = ScenarioSpec::new(TopologySpec::Clique(8), EventKind::TDown)
        .with_seed(1)
        .run();
    let b = ScenarioSpec::new(TopologySpec::Clique(8), EventKind::TDown)
        .with_seed(2)
        .run();
    // Jitter and processing delays differ, so send timelines must too.
    assert_ne!(a.record.sends, b.record.sends);
}

#[test]
fn topology_seed_controls_internet_graph_only() {
    let spec1 = TopologySpec::InternetLike {
        n: 29,
        topo_seed: 1,
    };
    let spec2 = TopologySpec::InternetLike {
        n: 29,
        topo_seed: 2,
    };
    let (g1, d1) = spec1.build();
    let (g1b, d1b) = spec1.build();
    let (g2, _) = spec2.build();
    assert_eq!(g1, g1b);
    assert_eq!(d1, d1b);
    assert_ne!(g1, g2);
}

#[test]
fn metrics_and_export_are_stable() {
    let result = ScenarioSpec::new(TopologySpec::Clique(6), EventKind::TDown)
        .with_seed(5)
        .run();
    let m = &result.measurement.metrics;
    let row = MetricsRow::from_metrics("det", "clique-6", "BGP", 6.0, 5, m);
    let json = to_json(std::slice::from_ref(&row)).expect("serializable");
    let row2 = MetricsRow::from_metrics("det", "clique-6", "BGP", 6.0, 5, m);
    let json2 = to_json(std::slice::from_ref(&row2)).expect("serializable");
    assert_eq!(json, json2);
    assert!(to_csv(&[row]).lines().count() == 2);
}
