//! Checks of the paper's analytical results on loop duration (§3.2):
//! the resolution of an `m`-node loop takes at most `(m−1) × M`
//! seconds of MRAI delay (plus message processing and propagation).

use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;

/// Every observed loop's lifetime respects the worst-case bound
/// `(m−1)·M` plus a processing-delay allowance: each of the `m−1`
/// resolving messages can also be queued behind other messages, so we
/// allow `m × (max processing delay × node degree)` of slack.
#[test]
fn loop_lifetimes_respect_worst_case_bound() {
    for (spec, event, seed) in [
        (TopologySpec::Clique(10), EventKind::TDown, 1u64),
        (TopologySpec::Clique(15), EventKind::TDown, 2),
        (TopologySpec::BClique(8), EventKind::TLong, 3),
    ] {
        let degree = 16.0; // generous upper bound for these topologies
        let result = ScenarioSpec::new(spec.clone(), event).with_seed(seed).run();
        for rec in &result.measurement.census {
            let Some(d) = rec.duration() else { continue };
            let m = rec.size() as f64;
            let bound = (m - 1.0) * 30.0 + m * 0.5 * degree;
            assert!(
                d.as_secs_f64() <= bound,
                "{}: loop {:?} lived {:.1}s > bound {:.1}s",
                spec.label(),
                rec.nodes,
                d.as_secs_f64(),
                bound
            );
        }
    }
}

/// With the MRAI timer disabled, loops can only live for processing +
/// propagation time — a tiny fraction of their MRAI-bound lifetime.
#[test]
fn without_mrai_loops_are_short() {
    let cfg = BgpConfig::default().with_mrai(SimDuration::ZERO);
    let with_mrai = ScenarioSpec::new(TopologySpec::Clique(10), EventKind::TDown)
        .with_seed(7)
        .run();
    let without = ScenarioSpec::new(TopologySpec::Clique(10), EventKind::TDown)
        .with_config(cfg)
        .with_seed(7)
        .run();
    let max_life = |r: &ScenarioResult| {
        r.measurement
            .census
            .iter()
            .filter_map(|l| l.duration())
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    };
    let long = max_life(&with_mrai);
    let short = max_life(&without);
    assert!(
        short < long / 3.0,
        "MRAI-free loops ({short:.2}s) should be much shorter than \
         MRAI-bound loops ({long:.2}s)"
    );
}

/// The 2-node loop of the paper's Figure 1 resolves after one
/// message exchange — bounded by processing delay, no MRAI needed
/// (the resolving update is node 5's *first* announcement of its new
/// path, which is not rate-limited).
#[test]
fn figure1_loop_is_short_lived() {
    let graph = Graph::from_edges([
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 6),
        (0, 4),
        (4, 5),
        (4, 6),
        (5, 6),
    ]);
    let record = ConvergenceExperiment::new(
        graph,
        NodeId::new(0),
        FailureEvent::LinkDown {
            a: NodeId::new(4),
            b: NodeId::new(0),
        },
    )
    .with_seed(1)
    .run();
    let census = loop_census(&record.fib, Prefix::new(0));
    let five_six = census
        .iter()
        .find(|r| r.nodes == vec![NodeId::new(5), NodeId::new(6)])
        .expect("Figure 1(b) loop forms");
    let life = five_six.duration().expect("loop resolves").as_secs_f64();
    assert!(
        life < 2.0,
        "the 2-node loop resolves within one processing round, got {life:.2}s"
    );
}

/// Larger cliques produce larger loops (more backup paths to explore).
#[test]
fn loop_sizes_grow_with_clique_size() {
    let max_size = |n: usize| {
        ScenarioSpec::new(TopologySpec::Clique(n), EventKind::TDown)
            .with_seed(5)
            .run()
            .measurement
            .census_summary
            .max_size
    };
    let small = max_size(5);
    let large = max_size(15);
    assert!(
        large > small,
        "15-clique loops ({large}) should exceed 5-clique loops ({small})"
    );
}
